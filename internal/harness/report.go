// Package harness drives the paper-reproduction experiments (DESIGN.md
// §4): Figure 2 on both devices, the search-space generation and size
// comparisons of §VI-A, the OpenTuner validity study of §VI-B, the
// defaults-vs-device-optimized comparison, the Section V parallel
// generation ablation, and the lazy-space and sweep measurements. Each
// experiment returns a Table that cmd/atf-experiments prints and
// EXPERIMENTS.md records.
package harness

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's result in printable form.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Markdown renders the table as a GitHub-flavoured markdown table (used
// when regenerating EXPERIMENTS.md data blocks).
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "**%s — %s**\n\n", t.ID, t.Title)
	fmt.Fprintln(w, "| "+strings.Join(t.Columns, " | ")+" |")
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintln(w, "| "+strings.Join(seps, " | ")+" |")
	for _, row := range t.Rows {
		fmt.Fprintln(w, "| "+strings.Join(row, " | ")+" |")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "\n*%s*\n", n)
	}
	fmt.Fprintln(w)
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func ns2ms(v float64) string { return fmt.Sprintf("%.3f ms", v/1e6) }
