package bench

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Chart renders a Table whose numeric columns are data series as a
// horizontal ASCII bar chart, one group per row — the terminal analogue of
// the paper's Figure 1/2 stacked bars. Non-numeric cells are skipped, and
// a table with no numeric column at all (Table 2 lists techniques) is
// printed as aligned text, so that every experiment can be rendered.
type Chart struct {
	Table *Table
	// Width is the maximum bar length in characters (default 48).
	Width int
	// Columns restricts the chart to these header names (nil = every
	// numeric column after the first).
	Columns []string
}

// glyphs distinguish the series within one group.
var glyphs = []byte{'#', '=', '*', '+', '~', 'o', 'x', '@', '%', '&'}

// Render writes the chart.
func (c *Chart) Render(w io.Writer) error {
	t := c.Table
	width := c.Width
	if width <= 0 {
		width = 48
	}
	cols := c.columnIndexes()
	if len(cols) == 0 && len(c.Columns) == 0 {
		return t.Render(w)
	}
	if len(cols) == 0 {
		return fmt.Errorf("bench: none of the columns %q are in %q", c.Columns, t.Title)
	}

	// Global maximum for a common scale.
	maxVal := 0.0
	for _, row := range t.Rows {
		for _, ci := range cols {
			if v, ok := cellValue(row, ci); ok && v > maxVal {
				maxVal = v
			}
		}
	}
	if maxVal == 0 {
		maxVal = 1
	}

	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n", t.Title)
	fmt.Fprintf(&b, "scale: full bar = %.3g\n", maxVal)
	for i, ci := range cols {
		fmt.Fprintf(&b, "  %c %s\n", glyphs[i%len(glyphs)], t.Header[ci])
	}
	b.WriteString("\n")

	labelW := 0
	for _, row := range t.Rows {
		if len(row[0]) > labelW {
			labelW = len(row[0])
		}
	}
	for _, row := range t.Rows {
		for i, ci := range cols {
			v, ok := cellValue(row, ci)
			if !ok {
				continue
			}
			n := int(v / maxVal * float64(width))
			if n < 1 && v > 0 {
				n = 1
			}
			label := ""
			if i == 0 {
				label = row[0]
			}
			fmt.Fprintf(&b, "%s  %s %8.3f\n",
				pad(label, labelW),
				strings.Repeat(string(glyphs[i%len(glyphs)]), n), v)
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// columnIndexes resolves the series columns.
func (c *Chart) columnIndexes() []int {
	t := c.Table
	if len(c.Columns) > 0 {
		var out []int
		for _, name := range c.Columns {
			if ci := t.Col(name); ci >= 0 {
				out = append(out, ci)
			}
		}
		return out
	}
	// Every column (after the label) that has at least one numeric cell.
	var out []int
	for ci := 1; ci < len(t.Header); ci++ {
		for _, row := range t.Rows {
			if _, ok := cellValue(row, ci); ok {
				out = append(out, ci)
				break
			}
		}
	}
	return out
}

func cellValue(row []string, ci int) (float64, bool) {
	if ci >= len(row) {
		return 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSuffix(row[ci], "x"), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}
