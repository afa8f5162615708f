package prof

import (
	"strings"
	"testing"
)

func TestTopReport(t *testing.T) {
	p := sample()
	out := p.TopReport(10)
	for _, want := range []string{"vfs_read", "ext4_read", "cum%", "total sites: 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("TopReport missing %q:\n%s", want, out)
		}
	}
	// The hottest row comes first and the indirect site names its top
	// target plus the count of others.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[1], "1000") {
		t.Errorf("first data row is not the hottest:\n%s", out)
	}
	if !strings.Contains(out, "(+2 more)") {
		t.Errorf("indirect target summary missing:\n%s", out)
	}
	// A negative row count (pibe top -n -3) prints no rows, only the
	// header and the totals line.
	out = p.TopReport(-1)
	lines = strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "cum%") || !strings.HasPrefix(lines[1], "total sites: 2,") {
		t.Errorf("TopReport(-1) = %q, want the header and the totals line", out)
	}
}

func TestTopReportTruncation(t *testing.T) {
	p := New()
	long := strings.Repeat("x", 60)
	p.AddDirect(1, long, long, 5)
	out := p.TopReport(1)
	if strings.Contains(out, long) {
		t.Error("long names not truncated")
	}
	if !strings.Contains(out, "…") {
		t.Error("truncation marker missing")
	}
}
