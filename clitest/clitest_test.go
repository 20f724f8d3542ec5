package clitest

import (
	"slices"
	"strings"
	"testing"
)

// TestTableSeed: a row's seed spells the row's arguments, in the table's
// order, plus each list's first entry where the row sets none.
func TestTableSeed(t *testing.T) {
	tb := Table{
		{"-n 16", "-n 8", "-n 0"},
		{"", "-F"},
		{"", "-t 2m", "-t 0"},
		{"", "x", "-h"},
	}
	for _, tc := range []struct{ row, want string }{
		{"", "-n 16"},
		{"-t 0 -n 8", "-n 8 -t 0"},
		{"-F x", "-n 16 -F x"},
		{"-h -n 0 -t 2m", "-n 0 -t 2m -h"},
	} {
		if got := tb.Args(tb.Seed(t, tc.row)); !slices.Equal(got, strings.Fields(tc.want)) {
			t.Errorf("%q: seed spells %q, want %q", tc.row, got, tc.want)
		}
	}
	// Indices wrap, and a short input picks each missing list's first entry.
	if got, want := tb.Args([]byte{4, 3}), strings.Fields("-n 8 -F"); !slices.Equal(got, want) {
		t.Errorf("Args wraps to %q, want %q", got, want)
	}
}
