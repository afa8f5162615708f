package main

import (
	"testing"

	"repro/internal/inline"
)

// TestInlineSummaryCountsOperationsApartFromSites: inherited call sites
// make the inline operations outnumber the initial candidate sites, so
// the line must not read as a share of those sites.
func TestInlineSummaryCountsOperationsApartFromSites(t *testing.T) {
	r := &inline.Result{Candidates: 382, TotalWeight: 1000, Inlined: 415, InlinedWeight: 782, UnprocessedWeight: 218}
	want := "inlining: 415 inline operations over 382 candidate sites (78.2% of return weight)"
	if got := inlineSummary(r); got != want {
		t.Errorf("inlineSummary = %q, want %q", got, want)
	}
}
