package pibe_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestPaperTablesPinned renders Table 5 (every defense at every
// optimization level, measured) and Table 11 (attack verdicts) at seed 1
// and requires each render to appear verbatim in bench_tables.txt, the
// committed output of `pibe-bench -table all`. A change to a cost, a
// pass, the attack model or the measurement driver that moves a number
// fails here until bench_tables.txt is regenerated with it:
//
//	go run ./cmd/pibe-bench -table all > bench_tables.txt
func TestPaperTablesPinned(t *testing.T) {
	committed, err := os.ReadFile("bench_tables.txt")
	if err != nil {
		t.Fatal(err)
	}
	s, err := bench.NewSuite(1)
	if err != nil {
		t.Fatalf("NewSuite: %v", err)
	}
	for _, id := range []string{"5", "11"} {
		tab, err := s.TableByID(id)
		if err != nil {
			t.Fatalf("table %s: %v", id, err)
		}
		if got := tab.Render(); !strings.Contains(string(committed), got) {
			t.Errorf("table %s is not in bench_tables.txt; regenerate that file. Rendered now:\n%s", id, got)
		}
	}
}
