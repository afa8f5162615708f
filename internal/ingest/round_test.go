package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/fleet"
	"repro/internal/prof"
	"repro/internal/resilience"
)

// sitesDelta is a delta reporting each site in ids count times.
func sitesDelta(count uint64, ids ...int) *prof.Profile {
	p := prof.New()
	for _, id := range ids {
		p.AddDirect(siteID(id), fmt.Sprintf("f%d", id), fmt.Sprintf("g%d", id), count)
	}
	p.Ops = 1
	return p
}

// TestIngestRejectsOutOfRangeKnobs: a decay or hot budget outside
// (0, 1], a drift floor outside [0, 1), a promotion drift threshold
// that is NaN or outside [0, 1], or a regression budget that is NaN or
// infinite, is a PhaseIngest/KindConfig fault instead of a silently
// substituted value or a disabled gate; 0 selects the default (for the
// drift floor and threshold: disabled), and a negative regression
// budget stays zero tolerance.
func TestIngestRejectsOutOfRangeKnobs(t *testing.T) {
	for _, cfg := range []Config{{Decay: 1.5}, {Decay: -0.5}, {HotBudget: 2}, {HotBudget: -1},
		{DriftFloor: 1.5}, {DriftFloor: 1}, {DriftFloor: -0.3}} {
		_, err := Open(cfg)
		if fe, ok := resilience.AsFault(err); !ok || fe.Phase != resilience.PhaseIngest || fe.Kind != resilience.KindConfig {
			t.Errorf("decay %g, hot budget %g, drift floor %g: Open = %v, want an ingest/config fault",
				cfg.Decay, cfg.HotBudget, cfg.DriftFloor, err)
		}
	}
	ctrl := func(string) *fleet.Controller { return &fleet.Controller{} }
	for _, c := range []struct {
		field   string
		promote fleet.PromoteConfig
	}{
		{"drift-threshold", fleet.PromoteConfig{DriftThreshold: math.NaN()}},
		{"drift-threshold", fleet.PromoteConfig{DriftThreshold: 1.5}},
		{"drift-threshold", fleet.PromoteConfig{DriftThreshold: -0.25}},
		{"regression-budget", fleet.PromoteConfig{RegressionBudget: math.NaN()}},
		{"regression-budget", fleet.PromoteConfig{RegressionBudget: math.Inf(1)}},
		{"regression-budget", fleet.PromoteConfig{RegressionBudget: math.Inf(-1)}},
	} {
		_, err := Open(Config{Workers: 1, Promote: &c.promote, NewController: ctrl})
		if fe, ok := resilience.AsFault(err); !ok || fe.Phase != resilience.PhaseIngest ||
			fe.Kind != resilience.KindConfig || fe.Site != c.field {
			t.Errorf("promote %+v: Open = %v, want an ingest/config fault at %s", c.promote, err, c.field)
		}
	}
	for _, p := range []fleet.PromoteConfig{{DriftThreshold: 0.75}, {DriftThreshold: 1}, {RegressionBudget: -1}} {
		svc, err := Open(Config{Workers: 1, Promote: &p, NewController: ctrl})
		if err != nil {
			t.Errorf("promote %+v rejected: %v", p, err)
			continue
		}
		svc.Close()
	}
	strict, err := Open(Config{Workers: 1, DriftFloor: 0.99})
	if err != nil {
		t.Fatalf("drift floor 0.99 rejected: %v", err)
	}
	strict.Close()
	svc, err := Open(Config{Workers: 1})
	if err != nil {
		t.Fatalf("zero decay and hot budget (the defaults) rejected: %v", err)
	}
	defer svc.Close()
	if svc.cfg.Decay != 0.5 || svc.cfg.HotBudget != 0.99 {
		t.Errorf("defaults = decay %g, hot budget %g, want 0.5 and 0.99", svc.cfg.Decay, svc.cfg.HotBudget)
	}
}

// TestIdleEvictZeroIsDefault: IdleEvict 0 selects the default 4, not
// "never": a tenant active in round 0 survives three idle barriers and
// the fourth evicts it.
func TestIdleEvictZeroIsDefault(t *testing.T) {
	svc, err := Open(Config{Workers: 1, IdleEvict: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Submit("a", sitesDelta(8, 1)); err != nil {
		t.Fatal(err)
	}
	if err := svc.EndRound(); err != nil {
		t.Fatal(err)
	}
	for idle := 1; idle <= 4; idle++ {
		if err := svc.EndRound(); err != nil {
			t.Fatal(err)
		}
		want := uint64(0)
		if idle == 4 {
			want = 1
		}
		if got := svc.Stats().Evictions; got != want {
			t.Fatalf("after idle round %d: %d evictions, want %d", idle, got, want)
		}
	}
	if svc.TenantSnapshot("a") != nil {
		t.Fatal("tenant still resident after its fourth idle round")
	}
}

// TestDecayEveryBarrier: every barrier decays every tenant once, active
// ones included, after OnRound saw the undecayed snapshot; the service
// checkpoint and the eviction file hold the decayed aggregate.
func TestDecayEveryBarrier(t *testing.T) {
	dir := t.TempDir()
	var seen []uint64
	cfg := Config{Workers: 1, IdleEvict: 1, StateDir: dir, OnRound: func(r TenantRound) error {
		seen = append(seen, r.Snapshot.Sites[siteID(1)].Count)
		return nil
	}}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	count := func(svc *Service) uint64 {
		snap := svc.TenantSnapshot("a")
		if snap == nil || snap.Sites[siteID(1)] == nil {
			return 0
		}
		return snap.Sites[siteID(1)].Count
	}
	if err := svc.Submit("a", sitesDelta(100, 1)); err != nil {
		t.Fatal(err)
	}
	if err := svc.EndRound(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != 100 || count(svc) != 50 {
		t.Fatalf("active tenant: OnRound saw %v, aggregate after the barrier %d; want [100] and 50", seen, count(svc))
	}
	svc.Close()

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := count(re); got != 50 {
		t.Fatalf("checkpointed aggregate = %d, want the decayed 50", got)
	}
	if err := re.EndRound(); err != nil { // idle: decays to 25, evicted
		t.Fatal(err)
	}
	if re.TenantSnapshot("a") != nil {
		t.Fatal("idle tenant not evicted with IdleEvict 1")
	}
	if err := re.Submit("a", sitesDelta(8, 1)); err != nil {
		t.Fatal(err)
	}
	if err := re.EndRound(); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{100, 25 + 8}; !reflect.DeepEqual(seen, want) {
		t.Errorf("OnRound saw %v, want %v (the eviction file held the decayed 25)", seen, want)
	}
}

// TestOnRoundObserver: OnRound sees every reporting tenant in ID order,
// after its promotion step and before the checkpoint; its error aborts
// the barrier, so the round is lost exactly as in a crash.
func TestOnRoundObserver(t *testing.T) {
	dir := t.TempDir()
	var seen []string
	fail := false
	cfg := Config{Workers: 1, StateDir: dir, OnRound: func(r TenantRound) error {
		seen = append(seen, fmt.Sprintf("%d:%s", r.Round, r.Tenant))
		if fail {
			return errors.New("observer down")
		}
		return nil
	}}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"b", "c", "a"} {
		if err := svc.Submit(id, sitesDelta(4, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.ReportFault("d", "trap"); err != nil {
		t.Fatal(err)
	}
	if err := svc.EndRound(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"0:a", "0:b", "0:c", "0:d"}; !reflect.DeepEqual(seen, want) {
		t.Errorf("OnRound saw %v, want %v", seen, want)
	}
	if err := svc.Submit("a", sitesDelta(4, 1)); err != nil {
		t.Fatal(err)
	}
	fail = true
	if err := svc.EndRound(); err == nil || !strings.Contains(err.Error(), "observer down") {
		t.Fatalf("EndRound with a failing observer = %v", err)
	}
	svc.Close()
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Round() != 1 {
		t.Errorf("resumed at round %d, want 1: the failed barrier must not checkpoint", re.Round())
	}
	if st := re.Stats(); st.Faults != 1 {
		t.Errorf("reported collector faults = %d after resume, want 1", st.Faults)
	}
}

// TestCanaryResumeMatchesUninterrupted: a tenant checkpointed in the
// middle of a three-round canary, or before it with a fault kind
// already seen, decides exactly as an uninterrupted run does — the
// canary is rebuilt from its checkpointed snapshot, and a kind seen
// before the crash is not new after it. Collector fault reports reach
// the gate without ever touching the breaker.
func TestCanaryResumeMatchesUninterrupted(t *testing.T) {
	base := sitesDelta(100, 1, 2, 3, 4)
	rounds := []struct {
		delta *prof.Profile
		kind  string
	}{
		{sitesDelta(100, 1, 2, 3, 4), "trap"},  // no drift; trap is seen before any build
		{sitesDelta(1000, 10, 11, 12, 13), ""}, // drift: build, canary serves 1
		{sitesDelta(1000, 10, 11, 12, 13), ""}, // canary serves 2
		{sitesDelta(1000, 10, 11, 12, 13), "trap"},
	}
	open := func(dir string, outs *[]fleet.StepOutcome) *Service {
		svc, err := Open(Config{
			Workers: 1, StateDir: dir, Baseline: base,
			Promote: &fleet.PromoteConfig{DriftThreshold: 0.5, CanarySteps: 3},
			NewController: func(string) *fleet.Controller {
				return &fleet.Controller{Rebuild: func(*prof.Profile) (*fleet.Candidate, error) {
					return &fleet.Candidate{}, nil
				}}
			},
			OnRound: func(r TenantRound) error {
				*outs = append(*outs, r.Promotion)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	run := func(svc *Service, from, to int) {
		for r := from; r < to; r++ {
			if err := svc.Submit("a", rounds[r].delta); err != nil {
				t.Fatal(err)
			}
			if k := rounds[r].kind; k != "" {
				if err := svc.ReportFault("a", k); err != nil {
					t.Fatal(err)
				}
			}
			if err := svc.EndRound(); err != nil {
				t.Fatal(err)
			}
		}
	}

	var want []fleet.StepOutcome
	ref := open(t.TempDir(), &want)
	run(ref, 0, len(rounds))
	st := ref.Stats()
	ref.Close()
	if last := want[len(want)-1]; !want[1].Rebuilt || !last.Promoted || st.Promotions != 1 {
		t.Fatalf("uninterrupted run decided %+v (promotions %d), want a build in round 1 promoted in round 3",
			want, st.Promotions)
	}
	if st.Trips != 0 || st.Faults != 2 {
		t.Errorf("collector faults fed the breaker or went uncounted: trips %d, faults %d", st.Trips, st.Faults)
	}

	for crash := 0; crash < len(rounds)-1; crash++ {
		dir := t.TempDir()
		var got []fleet.StepOutcome
		svc := open(dir, &got)
		run(svc, 0, crash+1)
		svc.Close() // writes nothing: a kill here looks the same on disk
		re := open(dir, &got)
		if re.Round() != crash+1 {
			t.Fatalf("crash after round %d: resumed at round %d", crash, re.Round())
		}
		run(re, crash+1, len(rounds))
		rst := re.Stats()
		re.Close()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("crash after round %d: decisions\n %+v\nwant %+v", crash, got, want)
		}
		if rst.Promotions != 1 || rst.PromoRejects != 0 {
			t.Errorf("crash after round %d: promotions %d, rejections %d; want 1 and 0",
				crash, rst.Promotions, rst.PromoRejects)
		}
	}
}

// TestIngestCheckpointTornWrite: every truncation point of a service
// checkpoint either resumes at the checkpointed round from what
// survived or is reported unusable — never a panic, never another
// round.
func TestIngestCheckpointTornWrite(t *testing.T) {
	dir := t.TempDir()
	sim, cfg := openSim(t, dir, 1, 3)
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(svc); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	path := filepath.Join(dir, StateFile)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var resumed int
	for cut := 0; cut < len(full); cut += 1 + len(full)/64 {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(cfg)
		if err != nil {
			continue // meta lost: the checkpoint is unusable
		}
		if r := re.Round(); r != 3 && !(cut == 0 && r == 0) {
			t.Errorf("cut=%d: resumed at round %d, want 3", cut, r)
		}
		resumed++
		re.Close()
	}
	if resumed == 0 {
		t.Error("no truncation point resumed")
	}
}

// TestIngestBaselineHashMismatch: a checkpointed baseline whose content
// no longer matches its recorded hash is dropped with a warning, and the
// tenant falls back to Config.Baseline.
func TestIngestBaselineHashMismatch(t *testing.T) {
	dir := t.TempDir()
	given := sitesDelta(5, 7)
	cfg := Config{Workers: 1, StateDir: dir}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit("a", sitesDelta(3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := svc.EndRound(); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	path := filepath.Join(dir, StateFile)
	secs, _, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, sec := range secs {
		if sec.Name == "tmeta-a" {
			kv := parseKV(sec.Data)
			secs[i].Data = bytes.Replace(sec.Data, []byte("base-hash "+kv["base-hash"]),
				[]byte("base-hash feedfacefeedface"), 1)
		}
	}
	if err := ckpt.SaveAtomic(path, secs); err != nil {
		t.Fatal(err)
	}
	var warned bool
	cfg.Baseline = given
	cfg.Warnf = func(format string, args ...any) {
		warned = warned || strings.Contains(fmt.Sprintf(format, args...), "baseline")
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !warned {
		t.Error("no warning for the mismatched baseline")
	}
	if re.Baseline("a") != given {
		t.Error("tenant did not fall back to Config.Baseline")
	}
}

// TestIngestCorruptCanarySection: a bit-flip inside a tenant's
// in-flight canary section drops just that section — the round, the
// tenant's aggregate, its checkpointed baseline and its promotion
// scalars still resume, and only the canary is lost.
func TestIngestCorruptCanarySection(t *testing.T) {
	dir := t.TempDir()
	base := sitesDelta(100, 1, 2, 3, 4)
	cfg := Config{
		Workers: 1, StateDir: dir, Baseline: base,
		Promote: &fleet.PromoteConfig{DriftThreshold: 0.5, CanarySteps: 3},
		NewController: func(string) *fleet.Controller {
			return &fleet.Controller{Rebuild: func(*prof.Profile) (*fleet.Candidate, error) {
				return &fleet.Candidate{}, nil
			}}
		},
	}
	promoState := func(svc *Service) fleet.PromoterState {
		tn := svc.resident("a")
		if tn == nil || tn.promo == nil {
			t.Fatal("tenant a has no promoter")
		}
		tn.mu.Lock()
		defer tn.mu.Unlock()
		return tn.promo.State()
	}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Round 0 sees a trap without drift; round 1 drifts, builds and
	// starts a canary.
	if err := svc.Submit("a", sitesDelta(100, 1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if err := svc.ReportFault("a", "trap"); err != nil {
		t.Fatal(err)
	}
	if err := svc.EndRound(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Submit("a", sitesDelta(1000, 10, 11, 12, 13)); err != nil {
		t.Fatal(err)
	}
	if err := svc.EndRound(); err != nil {
		t.Fatal(err)
	}
	agg := serialized(t, svc.TenantSnapshot("a"))
	want := promoState(svc)
	if want.Canary == nil || len(want.SeenKinds) == 0 {
		t.Fatalf("checkpointed promoter state %+v: want a seen kind and a canary in flight", want)
	}
	svc.Close()

	path := filepath.Join(dir, StateFile)
	secs, _, err := ckpt.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	var canary []byte
	for _, sec := range secs {
		if sec.Name == "tcanary-a" {
			canary = sec.Data
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(data, canary)
	if canary == nil || idx < 0 {
		t.Fatal("checkpoint has no tcanary-a section")
	}
	data[idx+len(canary)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, sal, err := ckpt.Load(path); err != nil || sal.Dropped != 1 {
		t.Fatalf("salvage = %v, %v; want exactly one dropped section", sal, err)
	}

	var warned bool
	cfg.Baseline = sitesDelta(5, 7)
	cfg.Warnf = func(format string, args ...any) {
		warned = warned || strings.Contains(fmt.Sprintf(format, args...), "in-flight canary dropped")
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open over a damaged canary section: %v", err)
	}
	defer re.Close()
	if !warned {
		t.Error("no warning for the dropped canary")
	}
	if re.Round() != 2 {
		t.Errorf("resumed at round %d, want 2", re.Round())
	}
	if got := re.TenantSnapshot("a"); got == nil || !bytes.Equal(serialized(t, got), agg) {
		t.Error("undamaged aggregate section did not resume")
	}
	if b := re.Baseline("a"); b == nil || b.Hash() != base.Hash() {
		t.Error("undamaged baseline section was dropped")
	}
	want.Canary = nil
	if got := promoState(re); !reflect.DeepEqual(got, want) {
		t.Errorf("promoter state after the dropped canary = %+v, want %+v", got, want)
	}
}
