// Package harness runs the paper-reproduction experiments (E1–E11, E13 and
// E14 of DESIGN.md) and renders their results as text tables.  Every experiment is
// deterministic given its built-in seeds, so EXPERIMENTS.md can record
// exact expected shapes.
package harness

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's result.
type Table struct {
	// ID is the experiment id (e.g. "E1").
	ID string
	// Title describes what the table shows.
	Title string
	// Paper names the paper artifact being reproduced.
	Paper string
	// Columns are the header cells.
	Columns []string
	// Rows are the data cells, formatted.
	Rows [][]string
	// Notes are shape-level observations printed under the table.
	Notes []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(w, "(reproduces: %s)\n", t.Paper)
	}
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
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
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

// Experiment couples an id with its runner.
type Experiment struct {
	ID   string
	Name string
	Run  func() (*Table, error)
}

// All returns every experiment in id order.
func All() []Experiment {
	return []Experiment{
		{ID: "E1", Name: "logical vs physiological log bytes (Figure 1)", Run: E1LogBytes},
		{ID: "E2", Name: "recovery correctness and idempotence (Figure 2, Theorem 2)", Run: E2Recovery},
		{ID: "E3", Name: "atomic flush-set sizes: W vs rW (Figures 3/4/7)", Run: E3FlushSets},
		{ID: "E4", Name: "rW refinement on the paper's own examples (Figure 5, Section 4)", Run: E4Refinement},
		{ID: "E5", Name: "identity writes vs flush transactions vs shadows (Section 4)", Run: E5FlushMechanisms},
		{ID: "E6", Name: "REDO tests: redo counts and scan length (Section 5)", Run: E6RedoTests},
		{ID: "E7", Name: "application recovery logging cost (Table 1, [7])", Run: E7AppRecovery},
		{ID: "E8", Name: "file-system copy/sort logging cost (Section 1)", Run: E8FileOps},
		{ID: "E9", Name: "B-tree split logging cost (Section 1)", Run: E9BtreeSplit},
		{ID: "E10", Name: "checkpoints, install logging, and redo scan length (Section 5)", Run: E10ScanLength},
		{ID: "E11", Name: "log shipping: replication lag and failover vs batch size", Run: E11ShipLag},
		{ID: "E13", Name: "recoverable domains: B+tree and LSM under scenario mixes", Run: E13DomainMixes},
		{ID: "E14", Name: "instant recovery: serving during redo vs full-redo restart", Run: E14InstantRecovery},
		{ID: "A1", Name: "ablation: install-record logging on/off", Run: A1InstallLogging},
		{ID: "A2", Name: "ablation: write-graph policy W vs rW under the cache manager", Run: A2PolicyAblation},
	}
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
