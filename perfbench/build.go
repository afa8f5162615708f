package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"

	pibe "repro"
	"repro/internal/attack"
	"repro/internal/diffcheck"
	"repro/internal/harden"
	"repro/internal/icp"
	"repro/internal/inline"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/sweep"
)

// The build workload: each op is one System.Build plus
// Image.SecurityReport for a cell of the sweep surface (sweep.DefaultGrid
// on both budget axes × sweep.DefaultCombos), built from an LMBench
// profile collected in set-up. It is the compile side of a sweep cell,
// without measurement.

// buildRate is the nominal build ops per second on the reference box.
const buildRate = 20.0

// bcell is one sweep cell: the two budgets and a combo index.
type bcell struct {
	icp, inl float64
	combo    int
}

func (c bcell) String() string {
	return fmt.Sprintf("icp %g inline %g combo %d", c.icp, c.inl, c.combo)
}

// buildSchedule draws rounds of cells. Each round holds every budget
// pair of the grid once, in seeded order, and pairs them with combos by
// a seeded shuffle that gives each combo an equal share, so every run
// builds the same budget mix.
func buildSchedule(seed int64, grid []float64, combos, rounds int) []bcell {
	rng := rand.New(rand.NewSource(seed))
	n := len(grid) * len(grid)
	var out []bcell
	for r := 0; r < rounds; r++ {
		pairs, cs := rng.Perm(n), rng.Perm(n)
		for i, p := range pairs {
			out = append(out, bcell{icp: grid[p/len(grid)], inl: grid[p%len(grid)], combo: cs[i] % combos})
		}
	}
	return out
}

// kept is an untraced op's image, held for differential validation.
type kept struct {
	op  int
	img *pibe.Image
}

type buildW struct {
	cfg     config
	sys     *pibe.System
	prof    *pibe.Profile
	combos  []sweep.Combo
	sched   []bcell
	ntraced int          // ops a traced loop replays
	prints  []string     // untraced image fingerprint per op
	kept    map[int]kept // the first untraced image of each combo
	stages  []staged     // traced builds, modules dropped
}

func (b *buildW) workers() string { return "1" }
func (b *buildW) close()          {}

func (b *buildW) setup() error {
	sys, err := newSystem()
	if err != nil {
		return err
	}
	p, err := sys.Profile(pibe.LMBench, 5)
	if err != nil {
		return fmt.Errorf("lmbench profile: %w", err)
	}
	b.sys, b.prof, b.combos = sys, p, sweep.DefaultCombos()
	grid := sweep.DefaultGrid
	rounds := roundsFor(b.cfg, len(grid)*len(grid), buildRate)
	if b.cfg.tiny {
		grid = []float64{0, 0.5}
		rounds = (minOps + 3) / 4
	}
	b.sched = buildSchedule(b.cfg.seed, grid, len(b.combos), rounds)
	b.ntraced = tracedOps(len(grid)*len(grid), rounds)
	return nil
}

func (b *buildW) warmup() error {
	for _, c := range b.sched[:2] {
		if _, _, err := b.op(c); err != nil {
			return err
		}
	}
	return nil
}

func (b *buildW) op(c bcell) (*pibe.Image, attack.Report, error) {
	img, err := b.sys.Build(pibe.BuildConfig{
		Profile:  b.prof,
		Defenses: b.combos[c.combo].Defenses,
		Optimize: pibe.OptimizeConfig{ICPBudget: c.icp, InlineBudget: c.inl},
	})
	if err != nil {
		return nil, attack.Report{}, err
	}
	return img, img.SecurityReport(), nil
}

func (b *buildW) loop(l *opLog, tr *tracer) error {
	sched := b.sched
	if tr == nil {
		b.prints, b.kept = nil, map[int]kept{}
	} else {
		sched = sched[:b.ntraced]
	}
	b.stages = nil
	l.begin()
	for i, c := range sched {
		if tr == nil {
			var img *pibe.Image
			var rep attack.Report
			l.do(func() (err error) {
				img, rep, err = b.op(c)
				return err
			})
			fp := ""
			if img != nil {
				l.check(func() { fp = b.checkImage(l, i, c, img, rep) })
			}
			b.prints = append(b.prints, fp)
			continue
		}
		tr.setOp(i)
		var s staged
		l.do(func() error {
			return tr.span("op", func() (err error) {
				s, err = b.staged(c, tr)
				return err
			})
		})
		if s.mod == nil {
			continue
		}
		l.check(func() {
			if !l.failed[i] && s.fingerprint() != b.prints[i] {
				l.fail(i, "%v: the staged build differs from System.Build's image", c)
			}
			st := ir.CollectStats(s.mod)
			s.instrs, s.bytes, s.mod = st.Instrs, st.Bytes, nil
			b.stages = append(b.stages, s)
		})
	}
	l.end()
	return nil
}

// checkImage checks one untraced image against references recomputed
// from its module, and returns its fingerprint when the run is traced.
func (b *buildW) checkImage(l *opLog, i int, c bcell, img *pibe.Image, rep attack.Report) string {
	hc := hardenConfig(b.combos[c.combo].Defenses)
	if err := harden.CheckInvariants(img.Mod, hc, false); err != nil {
		l.fail(i, "%v: %v", c, err)
	}
	census := harden.CollectCensus(img.Mod, hc)
	if b.cfg.corrupt && i == 0 {
		census.DefendedICalls++
	}
	if *census != *img.Census {
		l.fail(i, "%v: census %+v, recollected %+v", c, *img.Census, *census)
	}
	if _, ok := b.kept[c.combo]; !ok {
		b.kept[c.combo] = kept{i, img}
	}
	if !b.cfg.trace || i >= b.ntraced {
		return "" // only ops a traced loop replays need fingerprints
	}
	return staged{mod: img.Mod, census: img.Census, report: rep}.fingerprint()
}

// verify validates one image per combo against the unoptimized image
// hardened the same way: both must verify, uphold the hardening
// invariant and resolve identically over the LMBench corpus.
func (b *buildW) verify(l *opLog) error {
	for ci, combo := range b.combos {
		k, ok := b.kept[ci]
		if !ok {
			continue
		}
		ref, err := b.sys.Build(pibe.BuildConfig{Defenses: combo.Defenses})
		if err != nil {
			return fmt.Errorf("diffcheck reference for %s: %w", combo.Name, err)
		}
		refProg, err := interp.Compile(ref.Mod)
		if err != nil {
			return err
		}
		candProg, err := interp.Compile(k.img.Mod)
		if err != nil {
			return err
		}
		cfg := diffcheck.Config{Seed: b.cfg.seed, Runs: 2, Harden: hardenConfig(combo.Defenses)}
		if _, err := diffcheck.Validate(b.sys.Kernel, refProg, candProg, cfg); err != nil {
			l.fail(k.op, "%v: diffcheck: %v", b.sched[k.op], err)
		}
	}
	b.kept = nil
	return nil
}

// staged is one build made stage by stage, with what the stages reported.
type staged struct {
	mod               *ir.Module
	census            *harden.Census
	report            attack.Report
	promoted, inlined int
	instrs, bytes     int64
}

// fingerprint identifies a built image byte for byte: its static stats,
// size, census, attack report and the IR text of every function.
func (s staged) fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v\n%d\n%+v\n%+v\n", ir.CollectStats(s.mod), s.mod.ByteSize(), *s.census, s.report)
	for _, f := range s.mod.Funcs {
		io.WriteString(h, ir.Print(f))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// staged is System.Build followed by Image.SecurityReport, called stage
// by stage from the benchmark in Build's order so that each pass gets a
// span of its own.
func (b *buildW) staged(c bcell, tr *tracer) (staged, error) {
	var s staged
	var mod *ir.Module
	tr.span("ir.clone", func() error {
		mod = b.sys.Kernel.Mod.Clone()
		return nil
	})
	var extra map[ir.SiteID]uint64
	if c.icp > 0 {
		var res *icp.Result
		err := tr.span("icp.run", func() (err error) {
			res, err = icp.Run(mod, b.prof.Raw(), icp.Options{Budget: c.icp})
			return err
		})
		if err != nil {
			return s, err
		}
		s.promoted, extra = res.PromotedTargets, res.NewSiteWeights
	}
	if c.inl > 0 {
		var res *inline.Result
		err := tr.span("inline.run", func() (err error) {
			res, err = inline.Run(mod, b.prof.Raw(), inline.Options{Budget: c.inl, ExtraWeights: extra})
			return err
		})
		if err != nil {
			return s, err
		}
		s.inlined = res.Inlined
	}
	hc := hardenConfig(b.combos[c.combo].Defenses)
	if err := tr.span("harden.apply", func() (err error) {
		s.census, err = harden.Apply(mod, hc)
		return err
	}); err != nil {
		return s, err
	}
	if err := tr.span("ir.verify", func() error { return ir.Verify(mod, ir.VerifyOptions{}) }); err != nil {
		return s, err
	}
	if err := tr.span("interp.compile", func() error {
		_, err := interp.Compile(mod)
		return err
	}); err != nil {
		return s, err
	}
	tr.span("attack.evaluate", func() error {
		s.report = attack.Evaluate(mod)
		return nil
	})
	s.mod = mod
	return s, nil
}

func (b *buildW) layers(tr *tracer, l *opLog) map[string]float64 {
	tot := tr.totals()
	ops := float64(len(l.lat))
	perOp := func(name string) float64 { return frac(ms(tot[name].dur), ops) }
	var promoted, inlined, instrs, bytes, defended float64
	for _, s := range b.stages {
		promoted += float64(s.promoted)
		inlined += float64(s.inlined)
		instrs += float64(s.instrs)
		bytes += float64(s.bytes)
		defended += float64(s.census.DefendedICalls + s.census.DefendedReturns)
	}
	n := float64(len(b.stages))
	return map[string]float64{
		"ir.clone_ms":           perOp("ir.clone"),
		"icp.run_ms":            perOp("icp.run"),
		"inline.run_ms":         perOp("inline.run"),
		"harden.apply_ms":       perOp("harden.apply"),
		"ir.verify_ms":          perOp("ir.verify"),
		"interp.compile_ms":     perOp("interp.compile"),
		"attack.evaluate_ms":    perOp("attack.evaluate"),
		"icp.promoted_targets":  frac(promoted, n),
		"inline.inlined_sites":  frac(inlined, n),
		"ir.instrs":             frac(instrs, n),
		"ir.image_bytes":        frac(bytes, n),
		"harden.defended_sites": frac(defended, n),
	}
}
