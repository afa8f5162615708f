package interp

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/ir"
)

// Dist is a weighted distribution over function indices, used to decide
// which target an indirect call site resolves to on a given execution.
//
// Sampling uses Walker/Vose alias tables: the weight mass is laid out as
// n columns of height total, each column split between at most two
// targets, so Pick is O(1) regardless of how many targets the site has.
// The tables are built with exact integer arithmetic (no floating-point
// division), so the sampled distribution matches the weights exactly.
// When n*total would overflow uint64 the constructor falls back to a
// cumulative table searched with sort.Search; both paths draw from the
// machine's stream through the same unbiased bounded sampler.
type Dist struct {
	targets []int32
	total   uint64

	// Alias tables (nil when the fallback is in use). Column j covers
	// [0,total); values below cut[j] map to targets[j], the rest to
	// aliasTgt[j]. The sample space is [0, n*total).
	cut      []uint64
	aliasTgt []int32

	// Fallback cumulative table (nil when alias tables are in use).
	cum []uint64
}

// NewDist builds a distribution from (function index, weight) pairs.
// Pairs with zero weight are dropped; at least one positive weight is
// required.
func NewDist(targets []int, weights []uint64) (*Dist, error) {
	if len(targets) != len(weights) {
		return nil, fmt.Errorf("interp: NewDist: %d targets vs %d weights", len(targets), len(weights))
	}
	n := 0
	for _, w := range weights {
		if w != 0 {
			n++
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("interp: NewDist: no positive weights")
	}
	d := &Dist{targets: make([]int32, 0, n)}
	kept := make([]uint64, 0, n)
	var total uint64
	for i, t := range targets {
		if weights[i] == 0 {
			continue
		}
		if t < 0 {
			return nil, fmt.Errorf("interp: NewDist: invalid target index %d", t)
		}
		total += weights[i]
		d.targets = append(d.targets, int32(t))
		kept = append(kept, weights[i])
	}
	d.total = total
	if n == 1 {
		return d, nil
	}
	if total > ^uint64(0)/uint64(n) {
		// n*total overflows; fall back to a cumulative table.
		d.cum = make([]uint64, n)
		var cum uint64
		for i, w := range kept {
			cum += w
			d.cum[i] = cum
		}
		return d, nil
	}
	d.buildAlias(kept)
	return d, nil
}

// buildAlias constructs the Vose alias tables. Each weight is scaled by
// n (exact: overflow was excluded by the caller) and compared against the
// per-column capacity `total`; underfull columns borrow mass from
// overfull ones until every column is exactly full.
func (d *Dist) buildAlias(weights []uint64) {
	n := len(weights)
	d.cut = make([]uint64, n)
	d.aliasTgt = make([]int32, n)
	scaled := make([]uint64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * uint64(n)
		if scaled[i] < d.total {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		d.cut[s] = scaled[s]
		d.aliasTgt[s] = d.targets[l]
		// Column s used (total - scaled[s]) of l's mass.
		scaled[l] -= d.total - scaled[s]
		if scaled[l] < d.total {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Leftovers (from either list — integer arithmetic leaves no
	// rounding residue, so these columns hold exactly `total`).
	for _, l := range large {
		d.cut[l] = d.total
		d.aliasTgt[l] = d.targets[l]
	}
	for _, s := range small {
		d.cut[s] = d.total
		d.aliasTgt[s] = d.targets[s]
	}
}

// uint64n returns an unbiased uniform value in [0, n) using Lemire's
// multiply-shift rejection method. n must be nonzero.
func uint64n(src *fastSource, n uint64) uint64 {
	hi, lo := bits.Mul64(src.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(src.Uint64(), n)
		}
	}
	return hi
}

// pick samples a function index. Single-target distributions draw
// nothing from the stream; multi-target distributions draw two values
// (occasionally more, when the unbiased bounded sampler rejects).
func (d *Dist) pick(src *fastSource) int32 {
	if len(d.targets) == 1 {
		return d.targets[0]
	}
	if d.cut != nil {
		// Two bounded draws (column, then position within the column)
		// instead of one draw over [0, n*total): the factored form avoids
		// a 64-bit division on the hot path and samples the identical
		// distribution — P(column) = 1/n, P(direct | column) = cut/total.
		col := uint64n(src, uint64(len(d.targets)))
		if uint64n(src, d.total) < d.cut[col] {
			return d.targets[col]
		}
		return d.aliasTgt[col]
	}
	x := uint64n(src, d.total)
	i := sort.Search(len(d.cum), func(i int) bool { return d.cum[i] > x })
	return d.targets[i]
}

// NumTargets returns the number of distinct targets with positive weight.
func (d *Dist) NumTargets() int { return len(d.targets) }

// Resolver supplies the target distribution for each original indirect
// call site. Sites without an installed distribution cannot be executed
// indirectly.
//
// Distributions are stored in a dense table indexed by site ID (site IDs
// are allocated densely by ir.Module), so the engines' per-resolve
// lookup is a bounds check and a slice load instead of a map probe.
type Resolver struct {
	dense []*Dist
	n     int         // installed (non-nil) entries
	sites []ir.SiteID // cached sorted Sites(); nil after mutation
}

// NewResolver returns an empty resolver that grows on demand.
func NewResolver() *Resolver { return &Resolver{} }

// NewResolverSized returns an empty resolver pre-sized for site IDs in
// [0, bound); Program.SiteBound supplies the bound for a compiled module.
func NewResolverSized(bound int) *Resolver {
	if bound < 0 {
		bound = 0
	}
	return &Resolver{dense: make([]*Dist, bound)}
}

// Set installs (or, with a nil Dist, removes) the distribution for an
// original site ID.
func (r *Resolver) Set(orig ir.SiteID, d *Dist) {
	if orig < 0 {
		return
	}
	for int(orig) >= len(r.dense) {
		r.dense = append(r.dense, make([]*Dist, int(orig)+1-len(r.dense))...)
	}
	if (r.dense[orig] == nil) != (d == nil) {
		if d == nil {
			r.n--
		} else {
			r.n++
		}
	}
	r.dense[orig] = d
	r.sites = nil
}

// Get returns the distribution for an original site ID.
func (r *Resolver) Get(orig ir.SiteID) *Dist {
	if orig < 0 || int(orig) >= len(r.dense) {
		return nil
	}
	return r.dense[orig]
}

// Sites returns the site IDs with installed distributions, sorted. The
// result is cached until the next Set and must not be mutated.
func (r *Resolver) Sites() []ir.SiteID {
	if r.sites == nil {
		out := make([]ir.SiteID, 0, r.n)
		for id, d := range r.dense {
			if d != nil {
				out = append(out, ir.SiteID(id))
			}
		}
		r.sites = out
	}
	return r.sites
}
