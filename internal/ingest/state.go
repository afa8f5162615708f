package ingest

// Crash-safe ingestion state on the shared internal/ckpt container
// format. Two kinds of file live in Config.StateDir:
//
//   - StateFile ("ingest-checkpoint"): the service checkpoint, written
//     atomically at every EndRound barrier. One "meta" section (round,
//     fingerprint, the deterministic counters), one "global" section
//     (the global aggregate's canonical serialization) and, per live
//     tenant, its record: a "tmeta-<id>" key/value section (counters,
//     drift, fault-isolation and promotion state) plus "tprof-<id>"
//     (the decayed aggregate) and optionally "tbase-<id>" (baseline)
//     and "tcanary-<id>" (the snapshot an in-flight canary was built
//     from, rebuilt through the tenant's Controller on resume).
//
//   - "tenant-<id>.ckpt": an evicted tenant's record (sections "meta",
//     "aggregate", "baseline", "canary"), written atomically just
//     before the tenant leaves the resident map. A later Submit for
//     the tenant resurrects from it.
//
// Crash ordering: the tenant file is written before the tenant is
// dropped and before the round's service checkpoint. A SIGKILL
// in-between leaves the previous service checkpoint (which still
// lists the tenant live) plus a newer tenant file; the resumed run
// replays the round and overwrites the tenant file at the same
// barrier, so the state converges to exactly what an uninterrupted
// run writes. State is only ever persisted at round barriers — a
// mid-round kill loses only the round in flight, which the driver
// replays deterministically.
//
// Loading is lenient: a section whose frame or CRC is damaged is
// dropped; a tenant whose aggregate is lost or disagrees with its
// recorded hash is dropped with a warning (its counts are still in the
// global aggregate; only its per-tenant view resets), a damaged
// baseline or canary only loses that part; a damaged global section
// degrades to an empty global aggregate with a warning. Only a missing
// meta section, or a fingerprint mismatch, is fatal.

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/ckpt"
	"repro/internal/fleet"
	"repro/internal/prof"
	"repro/internal/resilience"
)

// StateFile is the service checkpoint file name inside Config.StateDir.
const StateFile = "ingest-checkpoint"

// tenantFile returns the eviction-checkpoint path for one tenant.
// Tenant IDs are pre-validated to [A-Za-z0-9._-]+ without a leading
// dot, so the name cannot escape dir.
func tenantFile(dir, id string) string {
	return filepath.Join(dir, "tenant-"+id+".ckpt")
}

func profileSection(name string, p *prof.Profile) ckpt.Section {
	var buf bytes.Buffer
	p.WriteTo(&buf)
	return ckpt.Section{Name: name, Data: buf.Bytes()}
}

// parseKV decodes a "key value\n" section.
func parseKV(data []byte) map[string]string {
	out := make(map[string]string)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		key, rest, _ := strings.Cut(line, " ")
		out[key] = rest
	}
	return out
}

// The parts of one tenant's record, and the section names they take in
// an eviction file; the service checkpoint prefixes them per tenant
// (tenantSections).
const (
	partMeta      = "meta"
	partAggregate = "aggregate"
	partBaseline  = "baseline"
	partCanary    = "canary"
)

// servicePrefix is the section-name prefix of each record part inside
// the service checkpoint, where every tenant's record sits side by side.
var servicePrefix = map[string]string{
	partMeta: "tmeta-", partAggregate: "tprof-", partBaseline: "tbase-", partCanary: "tcanary-",
}

// servicePart names part of tenant id's record inside the service
// checkpoint.
func servicePart(id string) func(part string) string {
	return func(part string) string { return servicePrefix[part] + id }
}

// tenantSections serializes tenant t's record: a kv meta section
// (counters, drift, fault-isolation state, promotion state and the
// content hash of every profile part) plus its aggregate, baseline and
// in-flight canary snapshot. name maps each part to its section name.
// Caller holds t.mu or has producers quiesced; taking the breaker
// snapshot here is safe because records are only written at round
// barriers, where the observation window is empty by construction.
func tenantSections(t *tenant, name func(part string) string) []ckpt.Section {
	agg := t.agg.Snapshot()
	var w bytes.Buffer
	fmt.Fprintf(&w, "deltas %d\n", t.deltas)
	fmt.Fprintf(&w, "last-active %d\n", t.lastActive)
	fmt.Fprintf(&w, "drift %s\n", strconv.FormatFloat(t.drift, 'g', -1, 64))
	fmt.Fprintf(&w, "agg-hash %s\n", agg.Hash())
	fmt.Fprintf(&w, "health %s\n", t.health)
	fmt.Fprintf(&w, "tokens %d\n", t.tokens)
	fmt.Fprintf(&w, "poison %d\n", t.poison)
	fmt.Fprintf(&w, "dropped %d\n", t.dropped)
	fmt.Fprintf(&w, "throttled %d\n", t.throttled)
	snap := t.brk.Snap()
	fmt.Fprintf(&w, "brk-state %s\n", snap.State)
	fmt.Fprintf(&w, "brk-open-left %d\n", snap.OpenLeft)
	fmt.Fprintf(&w, "brk-strikes %d\n", snap.Strikes)
	fmt.Fprintf(&w, "brk-trips %d\n", snap.Trips)
	fmt.Fprintf(&w, "brk-heals %d\n", snap.Heals)
	fmt.Fprintf(&w, "promoted %d\n", t.promoted)
	fmt.Fprintf(&w, "promo-rejected %d\n", t.promoRejected)
	fmt.Fprintf(&w, "promo-failures %d\n", t.promoFailures)
	secs := []ckpt.Section{{Name: name(partMeta)}, profileSection(name(partAggregate), agg)}
	if t.baseline != nil {
		fmt.Fprintf(&w, "base-hash %s\n", t.baseline.Hash())
		secs = append(secs, profileSection(name(partBaseline), t.baseline))
	}
	if t.promo != nil {
		ps := t.promo.State()
		fmt.Fprintf(&w, "promo-strikes %d\n", ps.Strikes)
		fmt.Fprintf(&w, "promo-cooldown %d\n", ps.Cooldown)
		writeKinds(&w, "promo-seen-kinds", ps.SeenKinds)
		if c := ps.Canary; c != nil {
			fmt.Fprintf(&w, "canary-served %d\n", c.Served)
			writeKinds(&w, "canary-kinds-before", c.KindsBefore)
			writeKinds(&w, "canary-new-kinds", c.NewKinds)
			fmt.Fprintf(&w, "canary-hash %s\n", c.Snap.Hash())
			secs = append(secs, profileSection(name(partCanary), c.Snap))
		}
	}
	secs[0].Data = w.Bytes()
	return secs
}

// writeKinds writes a fault-kind list as one kv line, omitted when empty.
func writeKinds(w *bytes.Buffer, key string, kinds []string) {
	if len(kinds) > 0 {
		fmt.Fprintf(w, "%s %s\n", key, strings.Join(kinds, " "))
	}
}

// readTenant rebuilds tenant id from its record; part returns a part's
// section data. Lenient: a baseline or canary that is missing,
// unparseable or disagrees with its recorded hash is dropped with a
// warning (a tenant without a baseline falls back to Config.Baseline,
// a dropped canary is rebuilt by the drift detector), and isolation
// state that does not parse degrades to a fresh bulkhead. A damaged
// aggregate is returned as aggErr alongside a tenant whose aggregate is
// empty: the caller decides between dropping the tenant and keeping it.
func (s *Service) readTenant(id string, part func(string) ([]byte, bool)) (t *tenant, aggErr error) {
	meta, _ := part(partMeta)
	kv := parseKV(meta)
	t = s.newTenant(id)
	t.deltas, _ = strconv.ParseUint(kv["deltas"], 10, 64)
	t.lastActive, _ = strconv.Atoi(kv["last-active"])
	t.drift, _ = strconv.ParseFloat(kv["drift"], 64)
	agg, aggErr := readProfile(part, partAggregate, kv["agg-hash"])
	if aggErr == nil {
		t.agg.Add(agg)
	}
	if base, err := readProfile(part, partBaseline, kv["base-hash"]); err == nil {
		t.baseline = base
	} else if _, ok := part(partBaseline); ok {
		s.cfg.Warnf("ingest: warning: tenant %s baseline dropped: %v", id, err)
	}
	s.restoreIsolation(t, kv)
	if _, ok := kv["promo-strikes"]; ok && s.cfg.Promote != nil {
		st := fleet.PromoterState{SeenKinds: strings.Fields(kv["promo-seen-kinds"])}
		st.Strikes, _ = strconv.Atoi(kv["promo-strikes"])
		st.Cooldown, _ = strconv.Atoi(kv["promo-cooldown"])
		if served, ok := kv["canary-served"]; ok {
			snap, err := readProfile(part, partCanary, kv["canary-hash"])
			if err != nil {
				s.cfg.Warnf("ingest: warning: tenant %s in-flight canary dropped: %v", id, err)
			} else {
				c := &fleet.CanaryState{Snap: snap,
					KindsBefore: strings.Fields(kv["canary-kinds-before"]),
					NewKinds:    strings.Fields(kv["canary-new-kinds"]),
				}
				c.Served, _ = strconv.Atoi(served)
				st.Canary = c
			}
		}
		t.promo = s.newPromoter(t)
		if err := t.promo.Restore(st); err != nil {
			s.cfg.Warnf("ingest: warning: tenant %s in-flight canary dropped: %v", id, err)
		}
	}
	return t, aggErr
}

// readProfile parses one profile part and checks it against its
// recorded content hash (when one was recorded).
func readProfile(part func(string) ([]byte, bool), name, wantHash string) (*prof.Profile, error) {
	data, ok := part(name)
	if !ok {
		return nil, fmt.Errorf("%s section lost", name)
	}
	p, err := prof.Read(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%s unparseable: %w", name, err)
	}
	if wantHash != "" && p.Hash() != wantHash {
		return nil, fmt.Errorf("%s hash %s != recorded %s", name, p.Hash(), wantHash)
	}
	return p, nil
}

// restoreIsolation applies a record's fault-isolation state and
// promotion counters to a freshly built tenant (which already has a
// closed breaker and a full token bucket). A record with no "health"
// key (or one that lost the lines to corruption) leaves the fresh
// bulkhead; a breaker or health state that does not parse degrades to
// it with a warning rather than failing the resume.
func (s *Service) restoreIsolation(t *tenant, kv map[string]string) {
	if _, ok := kv["health"]; !ok {
		return
	}
	t.poison, _ = strconv.ParseUint(kv["poison"], 10, 64)
	t.dropped, _ = strconv.ParseUint(kv["dropped"], 10, 64)
	t.throttled, _ = strconv.ParseUint(kv["throttled"], 10, 64)
	t.promoted, _ = strconv.Atoi(kv["promoted"])
	t.promoRejected, _ = strconv.Atoi(kv["promo-rejected"])
	t.promoFailures, _ = strconv.Atoi(kv["promo-failures"])
	if s.cfg.TenantRate > 0 {
		tokens, _ := strconv.Atoi(kv["tokens"])
		t.tokens = min(max(tokens, 0), s.cfg.TenantBurst)
	}
	var snap resilience.BreakerSnap
	snap.State = kv["brk-state"]
	snap.OpenLeft, _ = strconv.Atoi(kv["brk-open-left"])
	snap.Strikes, _ = strconv.Atoi(kv["brk-strikes"])
	snap.Trips, _ = strconv.ParseUint(kv["brk-trips"], 10, 64)
	snap.Heals, _ = strconv.ParseUint(kv["brk-heals"], 10, 64)
	health, herr := parseHealth(kv["health"])
	brk, berr := resilience.RestoreBreaker(s.breakerConfig(t.id), snap)
	if herr != nil || berr != nil {
		s.cfg.Warnf("ingest: warning: tenant %s isolation state unusable (%v, %v); resuming with a fresh bulkhead",
			t.id, herr, berr)
		return
	}
	t.health = health
	t.brk = brk
}

// saveTenantFile writes a tenant's eviction checkpoint atomically.
// Called from EndRound with producers quiesced, so the tenant's fields
// are stable.
func saveTenantFile(dir string, t *tenant) error {
	secs := tenantSections(t, func(part string) string { return part })
	if err := ckpt.SaveAtomic(tenantFile(dir, t.id), secs); err != nil {
		return fmt.Errorf("ingest: evict %s: %w", t.id, err)
	}
	return nil
}

// loadTenantFile reads tenant id's eviction checkpoint leniently. A
// missing file returns (nil, nil): the tenant is genuinely new. A
// damaged file degrades to whatever survived — at minimum a fresh
// tenant, an unusable aggregate resurrecting empty — with warnings; it
// never fails the Submit that triggered the resurrection.
func (s *Service) loadTenantFile(id string) (*tenant, error) {
	path := tenantFile(s.cfg.StateDir, id)
	secs, sal, err := ckpt.Load(path)
	if err != nil {
		return nil, resilience.Fault(resilience.PhaseIngest, resilience.KindCorrupt, id,
			fmt.Errorf("load tenant checkpoint %s: %w", path, err))
	}
	if secs == nil && sal == nil {
		return nil, nil
	}
	if sal != nil && !sal.Clean() {
		s.cfg.Warnf("ingest: warning: tenant checkpoint %s damaged; salvaging (%s)", path, sal)
	}
	byName := sectionMap(secs)
	t, err := s.readTenant(id, func(part string) ([]byte, bool) {
		data, ok := byName[part]
		return data, ok
	})
	if err != nil {
		s.cfg.Warnf("ingest: warning: tenant %s aggregate unusable, resurrecting empty: %v", id, err)
	}
	return t, nil
}

func sectionMap(secs []ckpt.Section) map[string][]byte {
	byName := make(map[string][]byte, len(secs))
	for _, sec := range secs {
		byName[sec.Name] = sec.Data
	}
	return byName
}

// checkpoint writes the service checkpoint for `round` completed
// rounds. Tenants are serialized in sorted ID order so the file bytes
// are deterministic.
func (s *Service) checkpoint(round int) error {
	var meta bytes.Buffer
	fmt.Fprintf(&meta, "round %d\n", round)
	if s.cfg.Fingerprint != "" {
		fmt.Fprintf(&meta, "fingerprint %s\n", s.cfg.Fingerprint)
	}
	for _, c := range s.counters() {
		fmt.Fprintf(&meta, "%s %d\n", c.key, *c.prev+c.cur.Load())
	}

	global := s.global.Snapshot()
	fmt.Fprintf(&meta, "global-hash %s\n", global.Hash())
	secs := []ckpt.Section{
		{Name: "meta", Data: meta.Bytes()},
		profileSection("global", global),
	}

	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].id < ts[j].id })
	for _, t := range ts {
		secs = append(secs, tenantSections(t, servicePart(t.id))...)
	}

	if err := ckpt.SaveAtomic(filepath.Join(s.cfg.StateDir, StateFile), secs); err != nil {
		return fmt.Errorf("ingest: checkpoint: %w", err)
	}
	return nil
}

// counter pairs a persisted counter's checkpoint key with its restored
// value and this process's tally.
type counter struct {
	key  string
	prev *uint64
	cur  *atomic.Uint64
}

// counters lists the deterministic counters the checkpoint persists.
func (s *Service) counters() []counter {
	m := &s.met
	return []counter{
		{"deltas", &m.prev.deltas, &m.deltas},
		{"batches", &m.prev.batches, &m.batches},
		{"overloads", &m.prev.overloads, &m.overloads},
		{"shed-deltas", &m.prev.shedDeltas, &m.shedDeltas},
		{"evictions", &m.prev.evictions, &m.evictions},
		{"resurrections", &m.prev.resurrections, &m.resurrections},
		{"poison", &m.prev.poisonRejects, &m.poisonRejects},
		{"quarantine-dropped", &m.prev.quarantined, &m.quarantined},
		{"throttled", &m.prev.throttled, &m.throttled},
		{"trips", &m.prev.trips, &m.trips},
		{"heals", &m.prev.heals, &m.heals},
		{"promotions", &m.prev.promotions, &m.promotions},
		{"promo-rejects", &m.prev.promoRejects, &m.promoRejects},
		{"promo-failures", &m.prev.promoFailures, &m.promoFailures},
		{"faults", &m.prev.faults, &m.faults},
	}
}

// restore loads the service checkpoint from cfg.StateDir into a
// freshly built Service, called once from Open before the workers
// start. A missing file is a fresh start; a fingerprint mismatch is
// fatal; anything else degrades with warnings.
func (s *Service) restore() error {
	path := filepath.Join(s.cfg.StateDir, StateFile)
	secs, sal, err := ckpt.Load(path)
	if err != nil {
		return fmt.Errorf("ingest: load checkpoint %s: %w", path, err)
	}
	if secs == nil && sal == nil {
		return nil
	}
	if sal != nil && !sal.Clean() {
		s.cfg.Warnf("ingest: warning: checkpoint %s damaged; salvaging (%s)", path, sal)
	}
	byName := sectionMap(secs)
	metaData, ok := byName["meta"]
	if !ok {
		return fmt.Errorf("ingest: checkpoint %s unusable: meta section lost (%s)", path, sal)
	}
	kv := parseKV(metaData)
	if got := kv["fingerprint"]; got != s.cfg.Fingerprint {
		return fmt.Errorf("ingest: checkpoint %s was written by a different configuration (its fingerprint %q, this run's %q); delete %s or rerun with the original flags",
			path, got, s.cfg.Fingerprint, s.cfg.StateDir)
	}
	round, err := strconv.Atoi(kv["round"])
	if err != nil || round < 0 {
		return fmt.Errorf("ingest: checkpoint %s unusable: bad round %q", path, kv["round"])
	}
	s.round.Store(int64(round))
	for _, c := range s.counters() {
		if v, ok := kv[c.key]; ok {
			*c.prev, _ = strconv.ParseUint(v, 10, 64)
		}
	}

	section := func(name string) ([]byte, bool) {
		data, ok := byName[name]
		return data, ok
	}
	if p, err := readProfile(section, "global", kv["global-hash"]); err != nil {
		s.cfg.Warnf("ingest: warning: checkpoint %s: global aggregate unusable, restarting it empty: %v", path, err)
	} else {
		s.global.Add(p)
	}

	for _, sec := range secs {
		id, ok := strings.CutPrefix(sec.Name, "tmeta-")
		if !ok {
			continue
		}
		if !validTenantID(id) {
			s.cfg.Warnf("ingest: warning: dropping checkpointed tenant with invalid id %q", id)
			continue
		}
		name := servicePart(id)
		t, err := s.readTenant(id, func(part string) ([]byte, bool) { return section(name(part)) })
		if err != nil {
			s.cfg.Warnf("ingest: warning: tenant %s dropped (its counts remain in the global aggregate): %v", id, err)
			continue
		}
		s.tenants[id] = t
	}
	return nil
}
