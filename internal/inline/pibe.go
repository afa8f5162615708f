package inline

import (
	"container/heap"
	"fmt"

	"repro/internal/inlinecost"
	"repro/internal/ir"
	"repro/internal/prof"
)

// Options configures PIBE's greedy profile-guided inliner.
type Options struct {
	// Budget is the optimization budget as a fraction of the cumulative
	// direct-call execution count, e.g. 0.999 for the paper's "99.9%".
	Budget float64

	// Rule2Threshold caps caller complexity after inlining; zero means
	// the paper's default (12000). Negative disables Rule 2.
	Rule2Threshold int64

	// Rule3Threshold caps callee complexity; zero means the paper's
	// default (3000). Negative disables Rule 3.
	Rule3Threshold int64

	// LaxBudget, when positive, disables Rules 2 and 3 for the hottest
	// sites that together cover this fraction of the cumulative count —
	// the paper's "lax heuristics" configuration (budget 99.9999% with
	// size heuristics disabled inside the 99% budget).
	LaxBudget float64

	// ExtraWeights supplies execution counts for call sites created
	// after profiling (promoted direct calls added by indirect call
	// promotion). Keys are exact site IDs.
	ExtraWeights map[ir.SiteID]uint64

	// DisableInheritance turns off the constant-ratio heuristic: call
	// sites copied into the caller by inlining are not re-enqueued as
	// candidates. Ablation for DESIGN.md's D5.
	DisableInheritance bool
}

func (o *Options) rule2() int64 {
	switch {
	case o.Rule2Threshold == 0:
		return inlinecost.Rule2Threshold
	case o.Rule2Threshold < 0:
		return 1 << 62
	default:
		return o.Rule2Threshold
	}
}

func (o *Options) rule3() int64 {
	switch {
	case o.Rule3Threshold == 0:
		return inlinecost.Rule3Threshold
	case o.Rule3Threshold < 0:
		return 1 << 62
	default:
		return o.Rule3Threshold
	}
}

// Result reports what the inliner did, in the units the paper's Tables 8,
// 9 and 10 are expressed in.
type Result struct {
	// Candidates is the number of initial candidate sites (profiled,
	// non-zero-weight direct call sites).
	Candidates int
	// TotalWeight is the cumulative execution count over candidates.
	TotalWeight uint64
	// Inlined counts successful inline operations; InlinedWeight the
	// execution count they elide (calls and returns removed per run).
	Inlined       int
	InlinedWeight uint64
	// BlockedRule2Weight etc. record the weight not elided per inhibitor
	// (Table 9). "Other" covers recursion, noinline/optnone attributes
	// and unknown callees.
	BlockedRule2Weight int64
	BlockedRule3Weight int64
	BlockedOtherWeight int64
	BlockedRule2Sites  int
	BlockedRule3Sites  int
	BlockedOtherSites  int
	// OverallWeight is the execution count eligible for inlining at
	// this budget (Table 9's "Ovr." column): processed weight, whether
	// elided or blocked.
	OverallWeight uint64
	// UnprocessedWeight is the weight of initial candidates left below
	// the budget floor.
	UnprocessedWeight uint64
}

// ElidedReturnFraction estimates the share of profiled return weight the
// inliner eliminated (the Table 8 "return weight" percentage).
func (r *Result) ElidedReturnFraction() float64 {
	if r.TotalWeight == 0 {
		return 0
	}
	blocked := uint64(r.BlockedRule2Weight+r.BlockedRule3Weight+r.BlockedOtherWeight) + r.UnprocessedWeight
	if blocked >= r.TotalWeight {
		return 0
	}
	return float64(r.TotalWeight-blocked) / float64(r.TotalWeight)
}

type candidate struct {
	site    ir.SiteID
	caller  *ir.Function
	callee  string
	weight  uint64
	seq     int  // FIFO tiebreak for determinism
	initial bool // from the original module, not inherited via inlining
}

type candHeap []*candidate

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(i, j int) bool {
	if h[i].weight != h[j].weight {
		return h[i].weight > h[j].weight
	}
	return h[i].seq < h[j].seq
}
func (h candHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)   { *h = append(*h, x.(*candidate)) }
func (h *candHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Run applies PIBE's greedy inlining policy to the module in place.
//
// The algorithm follows §5.2: candidates are all profiled direct call
// sites; an optimization budget selects the hottest sites covering
// Budget of the cumulative count; sites are processed hottest-first; a
// successful inline adds the callee's own call sites to the worklist
// with counts scaled by ε/invocations(callee) (the constant-ratio
// heuristic); Rule 2 rejects sites whose caller would exceed the
// complexity threshold, Rule 3 rejects callees above their own
// threshold.
func Run(mod *ir.Module, p *prof.Profile, opts Options) (*Result, error) {
	res := &Result{}
	weights := make(map[ir.SiteID]uint64)

	var h candHeap
	var candWeights []uint64 // for the budget floors
	seq := 0
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op != ir.OpCall {
					continue
				}
				w := SiteWeight(in, p, opts.ExtraWeights)
				if w == 0 {
					continue
				}
				weights[in.Site] = w
				candWeights = append(candWeights, w)
				h = append(h, &candidate{site: in.Site, caller: f, callee: in.Callee, weight: w, seq: seq, initial: true})
				seq++
				res.TotalWeight += w
			}
		}
	}
	res.Candidates = len(h)
	if res.Candidates == 0 || opts.Budget <= 0 {
		return res, nil
	}
	// The budget selects the initial candidate set: the hottest sites
	// that together cover Budget of the cumulative count. The weight of
	// the coldest selected site becomes the processing floor — call
	// sites inherited from inlined callees are processed whenever they
	// are at least that hot, colder ones never ("at the beginning, we
	// greedily select all targets that fit in this budget; then, at
	// each step we attempt to inline the hottest remaining call site").
	floor := prof.BudgetFloor(candWeights, opts.Budget)
	var laxFloor uint64 // weights >= laxFloor skip the size heuristics
	if opts.LaxBudget > 0 {
		laxFloor = prof.BudgetFloor(candWeights, opts.LaxBudget)
	}
	heap.Init(&h)

	rule2, rule3 := opts.rule2(), opts.rule3()
	// Rule 2 is a complexity *budget*: each caller may absorb at most
	// rule2 cost units of inlined code (Figure 1's "after inlining
	// [foo_1, cost 12000] we already depleted bar's complexity budget").
	added := make(map[string]int64)
	calleeCost := make(map[string]int64)
	costOf := func(f *ir.Function) int64 {
		if c, ok := calleeCost[f.Name]; ok {
			return c
		}
		c := inlinecost.Function(f)
		calleeCost[f.Name] = c
		return c
	}

	ilSeq := 0
	for h.Len() > 0 {
		if h[0].weight < floor {
			break
		}
		c := heap.Pop(&h).(*candidate)
		res.OverallWeight += c.weight

		lax := laxFloor > 0 && c.weight >= laxFloor

		callee := mod.Func(c.callee)
		if callee == nil || callee == c.caller ||
			callee.Attrs.Has(ir.AttrNoInline) || callee.Attrs.Has(ir.AttrOptNone) ||
			c.caller.Attrs.Has(ir.AttrOptNone) {
			res.BlockedOtherWeight += int64(c.weight)
			res.BlockedOtherSites++
			continue
		}
		ccost := costOf(callee)
		if !lax && ccost > rule3 {
			res.BlockedRule3Weight += int64(c.weight)
			res.BlockedRule3Sites++
			continue
		}
		if !lax && added[c.caller.Name]+ccost > rule2 {
			res.BlockedRule2Weight += int64(c.weight)
			res.BlockedRule2Sites++
			continue
		}
		bi, ii, ok := FindSite(c.caller, c.site)
		if !ok {
			// The site disappeared (its containing code was itself
			// replaced); treat as other.
			res.BlockedOtherWeight += int64(c.weight)
			res.BlockedOtherSites++
			continue
		}
		tag := fmt.Sprintf("il%d", ilSeq)
		ilSeq++
		children, err := Apply(mod, c.caller, bi, ii, tag)
		if err != nil {
			return nil, err
		}
		res.Inlined++
		res.InlinedWeight += c.weight
		added[c.caller.Name] += ccost
		// The caller's absolute cost grew too: keep the callee-cost
		// cache coherent in case this caller is later inlined itself.
		if cc, ok := calleeCost[c.caller.Name]; ok {
			calleeCost[c.caller.Name] = cc + ccost
		}

		// Constant-ratio heuristic: the callee's call sites join the
		// caller with counts scaled by ε / invocations(callee).
		if opts.DisableInheritance {
			continue
		}
		inv := p.Invocations[c.callee]
		if inv == 0 {
			continue
		}
		for _, ch := range children {
			if ch.Indirect {
				continue // indirect sites are ICP's business, not the inliner's
			}
			base := weights[ch.Source]
			if base == 0 {
				if s := p.Sites[ch.Orig]; s != nil && !s.Indirect() {
					base = s.Count
				} else if ew, ok := opts.ExtraWeights[ch.Orig]; ok {
					base = ew
				}
			}
			if base == 0 {
				continue
			}
			w := uint64(float64(base) * float64(c.weight) / float64(inv))
			if w == 0 {
				continue
			}
			weights[ch.Site] = w
			heap.Push(&h, &candidate{site: ch.Site, caller: c.caller, callee: ch.Callee, weight: w, seq: seq})
			seq++
		}
	}
	for _, c := range h {
		if c.initial {
			res.UnprocessedWeight += c.weight
		}
	}
	return res, nil
}

// SiteWeight is the weight an inliner gives call site in before it
// inlines anything: the extra weight of in.Site when it has one (a call
// created after profiling), else the profile count of in.Orig when that
// is a direct site.
func SiteWeight(in *ir.Instr, p *prof.Profile, extra map[ir.SiteID]uint64) uint64 {
	if w, ok := extra[in.Site]; ok {
		return w
	}
	if s := p.Sites[in.Orig]; s != nil && !s.Indirect() {
		return s.Count
	}
	return 0
}
