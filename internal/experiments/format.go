package experiments

import (
	"fmt"
	"strings"

	"picmcio/internal/sweep"
)

// Series is one labelled curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Table is a titled text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Render formats series as an aligned text block, one column per series.
func RenderSeries(title, xlabel string, ss []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	fmt.Fprintf(&b, "%-12s", xlabel)
	for _, s := range ss {
		fmt.Fprintf(&b, "  %-22s", s.Label)
	}
	b.WriteByte('\n')
	n := 0
	for _, s := range ss {
		if len(s.X) > n {
			n = len(s.X)
		}
	}
	for i := 0; i < n; i++ {
		wrote := false
		for _, s := range ss {
			if i < len(s.X) {
				if !wrote {
					fmt.Fprintf(&b, "%-12g", s.X[i])
					wrote = true
				}
				fmt.Fprintf(&b, "  %-22.4f", s.Y[i])
			} else if wrote {
				fmt.Fprintf(&b, "  %-22s", "-")
			}
		}
		if wrote {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Render formats the table as aligned text via the sweep engine's shared
// formatter, so hand-built figure tables and generic sweep tables line
// up identically.
func (t Table) Render() string {
	return sweep.FormatAligned(t.Title, t.Header, t.Rows)
}
