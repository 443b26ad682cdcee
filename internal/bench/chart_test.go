package bench

import (
	"bytes"
	"strings"
	"testing"
)

func chartTable() *Table {
	return &Table{
		Title:  "test chart",
		Header: []string{"Matrix", "A", "B", "Note"},
		Rows: [][]string{
			{"one", "1.0", "2.0", "text"},
			{"two", "4.0", "-", "text"},
		},
	}
}

func TestChartRender(t *testing.T) {
	var buf bytes.Buffer
	c := &Chart{Table: chartTable(), Width: 8}
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Longest bar (4.0 of max 4.0) is 8 glyphs.
	if !strings.Contains(out, strings.Repeat("#", 8)) {
		t.Errorf("missing full-scale bar:\n%s", out)
	}
	// 1.0 of 4.0 at width 8 = 2 glyphs on series A.
	if !strings.Contains(out, "one  ## ") {
		t.Errorf("missing scaled bar:\n%s", out)
	}
	// The text column must not become a series.
	if strings.Contains(out, "Note") {
		t.Errorf("text column charted:\n%s", out)
	}
}

func TestChartColumnSelection(t *testing.T) {
	var buf bytes.Buffer
	c := &Chart{Table: chartTable(), Columns: []string{"B"}}
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "# A") {
		t.Error("unselected column rendered")
	}
	bad := &Chart{Table: chartTable(), Columns: []string{"Nope"}}
	if err := bad.Render(&buf); err == nil {
		t.Error("empty selection accepted")
	}
}

// TestChartTextTable: a table with nothing to chart prints as text rather
// than failing, so -chart can render every experiment in one run.
func TestChartTextTable(t *testing.T) {
	tb := &Table{
		Title:  "techniques",
		Header: []string{"Machine", "Applied"},
		Rows:   [][]string{{"AMD X2", "RB, CB"}},
	}
	var chart, text bytes.Buffer
	if err := (&Chart{Table: tb}).Render(&chart); err != nil {
		t.Fatal(err)
	}
	if err := tb.Render(&text); err != nil {
		t.Fatal(err)
	}
	if chart.String() != text.String() {
		t.Errorf("non-numeric table charted as\n%s\nwant its text form\n%s", chart.String(), text.String())
	}
}

func TestChartOnFigure2b(t *testing.T) {
	r := testRunner()
	tb, err := r.Figure2b()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	c := &Chart{Table: tb, Columns: []string{"Mflop/s per Watt"}}
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Cell Blade") {
		t.Error("figure 2b chart missing machines")
	}
}
