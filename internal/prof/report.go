package prof

import (
	"fmt"
	"strings"
)

// TopReport formats the n hottest call sites with cumulative weight
// coverage — the view used to choose optimization budgets: the row where
// the cumulative column crosses 99% is where a 99% budget stops. n is
// clamped to [0, number of sites]; the header and totals always print.
func (p *Profile) TopReport(n int) string {
	sites := p.SitesSorted()
	n = max(0, min(n, len(sites)))
	var total uint64
	for _, s := range sites {
		total += s.Count
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s %-6s %-28s %-28s %12s %8s\n",
		"site", "kind", "caller", "callee/top-target", "count", "cum%")
	var cum uint64
	for _, s := range sites[:n] {
		cum += s.Count
		kind, target := "direct", s.Callee
		if s.Indirect() {
			kind = "icall"
			ts := s.SortedTargets()
			target = fmt.Sprintf("%s (+%d more)", ts[0].Name, len(ts)-1)
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(cum) / float64(total)
		}
		fmt.Fprintf(&sb, "%-6d %-6s %-28s %-28s %12d %7.2f%%\n",
			s.ID, kind, trunc(s.Caller, 28), trunc(target, 28), s.Count, pct)
	}
	fmt.Fprintf(&sb, "total sites: %d, total weight: %d, ops: %d\n", len(sites), total, p.Ops)
	return sb.String()
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
