// Package report renders the reproduction's tables and figures as ASCII:
// normalized execution-time and energy charts in the style of Figures 3
// and 4 (six configurations, normalized to GD0), speedup tables in the
// style of Figure 1, and the geometric-mean summary statistics Section 6
// quotes.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Geomean returns the geometric mean of positive values (1.0 for empty).
func Geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 1
	}
	s := 0.0
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// Table is a simple named-rows / named-columns float table.
type Table struct {
	Title   string
	RowName string
	Cols    []string
	Rows    []string
	Cells   map[string]map[string]float64
}

// NewTable builds an empty table.
func NewTable(title, rowName string, cols []string) *Table {
	return &Table{Title: title, RowName: rowName, Cols: cols, Cells: map[string]map[string]float64{}}
}

// Set stores a cell, appending the row on first use.
func (t *Table) Set(row, col string, v float64) {
	if t.Cells[row] == nil {
		t.Cells[row] = map[string]float64{}
		t.Rows = append(t.Rows, row)
	}
	t.Cells[row][col] = v
}

// Get returns a cell value (0 if absent).
func (t *Table) Get(row, col string) float64 { return t.Cells[row][col] }

// Normalize divides every row by its value in the reference column.
func (t *Table) Normalize(refCol string) *Table {
	out := NewTable(t.Title+" (normalized to "+refCol+")", t.RowName, t.Cols)
	for _, r := range t.Rows {
		ref := t.Get(r, refCol)
		for _, c := range t.Cols {
			if ref != 0 {
				out.Set(r, c, t.Get(r, c)/ref)
			}
		}
	}
	return out
}

// ColGeomean returns the geometric mean down a column.
func (t *Table) ColGeomean(col string) float64 {
	var vals []float64
	for _, r := range t.Rows {
		if v := t.Get(r, col); v > 0 {
			vals = append(vals, v)
		}
	}
	return Geomean(vals)
}

// Render draws the table with the given cell format (e.g. "%8.3f").
func (t *Table) Render(format string, withGeomean bool) string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	w := 10
	for _, r := range t.Rows {
		if len(r) > w {
			w = len(r)
		}
	}
	fmt.Fprintf(&b, "%-*s", w+2, t.RowName)
	for _, c := range t.Cols {
		fmt.Fprintf(&b, "%10s", c)
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", w+2, r)
		for _, c := range t.Cols {
			fmt.Fprintf(&b, format, t.Get(r, c))
		}
		b.WriteString("\n")
	}
	if withGeomean {
		fmt.Fprintf(&b, "%-*s", w+2, "geomean")
		for _, c := range t.Cols {
			fmt.Fprintf(&b, format, t.ColGeomean(c))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// StackedTable holds per-row, per-column component breakdowns (the
// energy figures).
type StackedTable struct {
	Title      string
	Components []string
	Cols       []string
	Rows       []string
	// Cells[row][col][component].
	Cells map[string]map[string]map[string]float64
}

// NewStackedTable builds an empty breakdown table.
func NewStackedTable(title string, components, cols []string) *StackedTable {
	return &StackedTable{
		Title: title, Components: components, Cols: cols,
		Cells: map[string]map[string]map[string]float64{},
	}
}

// Set stores one component value.
func (t *StackedTable) Set(row, col, component string, v float64) {
	if t.Cells[row] == nil {
		t.Cells[row] = map[string]map[string]float64{}
		t.Rows = append(t.Rows, row)
	}
	if t.Cells[row][col] == nil {
		t.Cells[row][col] = map[string]float64{}
	}
	t.Cells[row][col][component] = v
}

// Total returns the component sum of a cell.
func (t *StackedTable) Total(row, col string) float64 {
	s := 0.0
	for _, v := range t.Cells[row][col] {
		s += v
	}
	return s
}

// Render draws the breakdown normalized to refCol's total per row.
func (t *StackedTable) Render(refCol string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (per-component, normalized to %s total)\n", t.Title, refCol)
	header := fmt.Sprintf("%-12s %-6s", "workload", "config")
	for _, c := range t.Components {
		header += fmt.Sprintf("%10s", c)
	}
	header += fmt.Sprintf("%10s", "total")
	b.WriteString(header + "\n")
	for _, r := range t.Rows {
		ref := t.Total(r, refCol)
		if ref == 0 {
			continue
		}
		for _, c := range t.Cols {
			fmt.Fprintf(&b, "%-12s %-6s", r, c)
			for _, comp := range t.Components {
				fmt.Fprintf(&b, "%10.3f", t.Cells[r][c][comp]/ref)
			}
			fmt.Fprintf(&b, "%10.3f\n", t.Total(r, c)/ref)
		}
		b.WriteString("\n")
	}
	return b.String()
}
