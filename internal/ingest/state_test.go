package ingest

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/resilience"
)

// openSim builds a Sim plus a fingerprinted service config over dir.
func openSim(t *testing.T, dir string, workers, rounds int) (*Sim, Config) {
	t.Helper()
	sim := smallSim(t, workers, rounds)
	cfg := Config{Workers: workers, BatchSize: 5, IdleEvict: 1, StateDir: dir}
	cfg.Fingerprint = sim.Fingerprint(cfg)
	return sim, cfg
}

// TestIngestCheckpointRoundTrip: a checkpointed run reopens with its
// round counter, counters, tenants and global aggregate intact.
func TestIngestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sim, cfg := openSim(t, dir, 2, 3)
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(svc); err != nil {
		t.Fatal(err)
	}
	before := svc.Stats()
	global := serialized(t, svc.GlobalSnapshot())
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Round() != 3 {
		t.Errorf("reopened Round() = %d, want 3", re.Round())
	}
	after := re.Stats()
	if after.Deltas != before.Deltas || after.Batches != before.Batches ||
		after.Evictions != before.Evictions || after.Resurrections != before.Resurrections {
		t.Errorf("counters after reopen = %+v, want %+v", after, before)
	}
	if after.LiveTenants != before.LiveTenants {
		t.Errorf("reopened %d live tenants, want %d", after.LiveTenants, before.LiveTenants)
	}
	if got := serialized(t, re.GlobalSnapshot()); !bytes.Equal(got, global) {
		t.Error("reopened global aggregate differs from checkpointed one")
	}
	for i, ts := range after.Tenants {
		if want := before.Tenants[i]; ts != want {
			t.Errorf("tenant %s after reopen = %+v, want %+v", ts.ID, ts, want)
		}
	}
}

// TestIngestCrashResumeByteIdentical is the tentpole acceptance: a run
// killed between rounds (state persists only at round barriers, so an
// abandoned process mid-round looks identical on disk) resumes from
// the checkpoint and finishes with a final global snapshot that is
// byte-for-byte the uninterrupted run's — across a worker-count change
// at resume, and with evictions and resurrections in the replayed
// window.
func TestIngestCrashResumeByteIdentical(t *testing.T) {
	const rounds = 8
	refSim := smallSim(t, 1, rounds)
	refSvc, err := Open(Config{Workers: 1, BatchSize: 5, IdleEvict: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := refSim.Run(refSvc); err != nil {
		t.Fatal(err)
	}
	ref := serialized(t, refSvc.GlobalSnapshot())
	refSvc.Close()

	for _, killAfter := range []int{1, 3, 5} {
		dir := t.TempDir()
		sim, cfg := openSim(t, dir, 4, rounds)
		cfg.BatchSize = 5
		svc, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		killed := errors.New("killed")
		sim.cfg.RoundHook = func(r int, _ *Service) error {
			if r == killAfter {
				return killed
			}
			return nil
		}
		if err := sim.Run(svc); !errors.Is(err, killed) {
			t.Fatalf("kill@%d: Run = %v, want the kill sentinel", killAfter, err)
		}
		// Abandon the first service the way SIGKILL would: no flush, no
		// extra checkpoint. (Close only to reap goroutines; it writes
		// nothing to disk.)
		svc.Close()

		sim2, cfg2 := openSim(t, dir, 2, rounds)
		re, err := Open(cfg2)
		if err != nil {
			t.Fatalf("kill@%d: reopen: %v", killAfter, err)
		}
		if re.Round() != killAfter+1 {
			t.Fatalf("kill@%d: resumed at round %d, want %d", killAfter, re.Round(), killAfter+1)
		}
		if err := sim2.Run(re); err != nil {
			t.Fatalf("kill@%d: resumed run: %v", killAfter, err)
		}
		got := serialized(t, re.GlobalSnapshot())
		re.Close()
		if !bytes.Equal(got, ref) {
			t.Errorf("kill@%d: resumed global snapshot differs from uninterrupted run", killAfter)
		}
	}
}

// TestIngestFingerprintMismatch: a checkpoint written under one
// configuration fingerprint refuses to resume under another.
func TestIngestFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	sim, cfg := openSim(t, dir, 1, 2)
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(svc); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	cfg2 := cfg
	cfg2.Fingerprint = "different"
	if _, err := Open(cfg2); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("Open with mismatched fingerprint = %v, want rejection", err)
	}
}

// TestIngestCorruptCheckpointDegrades: flipping bytes inside the
// checkpoint must not brick the service — damaged tenant payloads are
// dropped with warnings (their counts remain in the global aggregate),
// and only the loss of the meta section is fatal.
func TestIngestCorruptCheckpointDegrades(t *testing.T) {
	dir := t.TempDir()
	sim, cfg := openSim(t, dir, 1, 2)
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(svc); err != nil {
		t.Fatal(err)
	}
	before := svc.Stats()
	svc.Close()

	path := filepath.Join(dir, StateFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside a tenant profile section's payload; the CRC
	// catches it and the lenient reader drops that section.
	idx := bytes.Index(data, []byte("tprof-t002"))
	if idx < 0 {
		t.Fatal("checkpoint has no tprof-t002 section")
	}
	mut := append([]byte(nil), data...)
	mut[idx+40] ^= 0x20
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}

	var warned bool
	cfg.Warnf = func(string, ...any) { warned = true }
	re, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open over damaged checkpoint: %v", err)
	}
	defer re.Close()
	if !warned {
		t.Error("no warning for a damaged checkpoint section")
	}
	if got := re.Stats().LiveTenants; got >= before.LiveTenants {
		t.Errorf("damaged tenant not dropped: %d live tenants, had %d", got, before.LiveTenants)
	}
	if re.Round() != 2 {
		t.Errorf("damaged checkpoint lost the round counter: %d", re.Round())
	}
}

// TestIngestEvictionFileRoundTrip: saveTenantFile/loadTenantFile
// round-trip the aggregate, baseline and counters; a missing file is a
// clean miss.
func TestIngestEvictionFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sim := smallSim(t, 1, 1)
	tn := &tenant{id: "t-round", agg: nil, deltas: 7, lastActive: 3}
	svc, err := Open(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	tn.agg = svc.newTenantAgg()
	tn.agg.Add(sim.Delta(0, 0, 0))
	tn.baseline = sim.Delta(1, 0, 0)
	tn.brk = resilience.NewBreaker(svc.breakerConfig(tn.id))
	if err := saveTenantFile(dir, tn); err != nil {
		t.Fatal(err)
	}

	res, err := svc.loadTenantFile("t-round")
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("loadTenantFile found nothing")
	}
	if res.deltas != 7 {
		t.Errorf("deltas = %d, want 7", res.deltas)
	}
	if !bytes.Equal(serialized(t, res.agg.Snapshot()), serialized(t, tn.agg.Snapshot())) {
		t.Error("aggregate did not round-trip")
	}
	if !bytes.Equal(serialized(t, res.baseline), serialized(t, tn.baseline)) {
		t.Error("baseline did not round-trip")
	}

	missing, err := svc.loadTenantFile("no-such-tenant")
	if err != nil || missing != nil {
		t.Errorf("missing tenant file: got (%v, %v), want (nil, nil)", missing, err)
	}
}
