// Package evalx implements the paper's evaluation machinery: ROC curves and
// AUROC (the effectiveness metrics of §VI), the confusion counts at a hard
// threshold, and the Table an experiment returns its numbers in: a grid of
// labelled cells that keep their values and render as aligned plain text.
package evalx

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// ROCPoint is one (FPR, TPR) operating point.
type ROCPoint struct {
	FPR, TPR float64
}

// ROC computes the ROC curve of scores against binary labels by sweeping
// the decision threshold over every distinct score (descending). The curve
// starts at (0,0) and ends at (1,1).
func ROC(scores []float64, labels []bool) ([]ROCPoint, error) {
	if len(scores) != len(labels) {
		return nil, fmt.Errorf("evalx: %d scores vs %d labels", len(scores), len(labels))
	}
	pos, neg := 0, 0
	for _, l := range labels {
		if l {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return nil, fmt.Errorf("evalx: ROC needs both classes (pos=%d neg=%d)", pos, neg)
	}
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })

	curve := []ROCPoint{{0, 0}}
	tp, fp := 0, 0
	i := 0
	for i < len(idx) {
		// Process ties together.
		j := i
		for j < len(idx) && scores[idx[j]] == scores[idx[i]] {
			if labels[idx[j]] {
				tp++
			} else {
				fp++
			}
			j++
		}
		curve = append(curve, ROCPoint{FPR: float64(fp) / float64(neg), TPR: float64(tp) / float64(pos)})
		i = j
	}
	return curve, nil
}

// AUROC computes the area under the ROC curve via the rank-sum
// (Mann-Whitney U) statistic, which handles ties exactly.
func AUROC(scores []float64, labels []bool) (float64, error) {
	if len(scores) != len(labels) {
		return 0, fmt.Errorf("evalx: %d scores vs %d labels", len(scores), len(labels))
	}
	type sl struct {
		s float64
		l bool
	}
	items := make([]sl, len(scores))
	for i := range scores {
		items[i] = sl{scores[i], labels[i]}
	}
	sort.Slice(items, func(a, b int) bool { return items[a].s < items[b].s })

	pos, neg := 0, 0
	var rankSum float64
	i := 0
	rank := 1
	for i < len(items) {
		j := i
		for j < len(items) && items[j].s == items[i].s {
			j++
		}
		// Average rank for the tie group [i, j).
		avgRank := float64(rank+rank+(j-i)-1) / 2
		for k := i; k < j; k++ {
			if items[k].l {
				rankSum += avgRank
			}
		}
		rank += j - i
		i = j
	}
	for _, it := range items {
		if it.l {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return 0, fmt.Errorf("evalx: AUROC needs both classes (pos=%d neg=%d)", pos, neg)
	}
	u := rankSum - float64(pos)*float64(pos+1)/2
	return u / (float64(pos) * float64(neg)), nil
}

// TPRAtFPR linearly interpolates the ROC curve at the given FPR — used to
// compare curves pointwise the way Fig. 10 panels do.
func TPRAtFPR(curve []ROCPoint, fpr float64) float64 {
	if len(curve) == 0 {
		return 0
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].FPR >= fpr {
			lo, hi := curve[i-1], curve[i]
			if hi.FPR == lo.FPR {
				return math.Max(lo.TPR, hi.TPR)
			}
			frac := (fpr - lo.FPR) / (hi.FPR - lo.FPR)
			return lo.TPR + frac*(hi.TPR-lo.TPR)
		}
	}
	return curve[len(curve)-1].TPR
}

// ConfusionAtThreshold returns TP, FP, TN, FN for a hard threshold τ
// (score > τ ⇒ anomaly).
func ConfusionAtThreshold(scores []float64, labels []bool, tau float64) (tp, fp, tn, fn int) {
	for i, s := range scores {
		pred := s > tau
		switch {
		case pred && labels[i]:
			tp++
		case pred && !labels[i]:
			fp++
		case !pred && !labels[i]:
			tn++
		default:
			fn++
		}
	}
	return tp, fp, tn, fn
}

// Cell is one table entry: the number an experiment measured beside the
// text it prints as. A cell that is only a label carries NaN.
type Cell struct {
	Value float64
	Text  string
}

// Fmt is a numeric cell printed with a format of its own ("%.5f", "%.1fx").
func Fmt(format string, v float64) Cell { return Cell{Value: v, Text: fmt.Sprintf(format, v)} }

// Table is the grid an experiment returns — row labels, column headers,
// cells that keep their value — and the one renderer of aligned plain text.
type Table struct {
	Title string
	// Headers[0] heads the row-label column; a row's first cell is its label.
	Headers []string
	Rows    [][]Cell
	// Note is printed as one line under the rows when non-empty.
	Note string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRowf appends a row, label first. Strings pass through, floats render
// with %.2f, ints with %d, a Cell as it says.
func (t *Table) AddRowf(cells ...interface{}) {
	row := make([]Cell, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case Cell:
			row[i] = v
		case string:
			row[i] = Cell{Value: math.NaN(), Text: v}
		case float64:
			row[i] = Fmt("%.2f", v)
		case int:
			row[i] = Cell{Value: float64(v), Text: fmt.Sprintf("%d", v)}
		default:
			row[i] = Cell{Value: math.NaN(), Text: fmt.Sprint(v)}
		}
	}
	t.Rows = append(t.Rows, row)
}

// Value returns the number in the row labelled row under the header col
// (the first match of each), and whether there is such a cell.
func (t *Table) Value(row, col string) (float64, bool) {
	for j := 1; j < len(t.Headers); j++ {
		for _, r := range t.Rows {
			if t.Headers[j] == col && j < len(r) && r[0].Text == row {
				return r[j].Value, true
			}
		}
	}
	return 0, false
}

// Render returns the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	lines := [][]string{t.Headers, make([]string, len(t.Headers))}
	for _, r := range t.Rows {
		line := make([]string, len(r))
		for i, c := range r {
			line[i] = c.Text
		}
		lines = append(lines, line)
	}
	widths := make([]int, len(t.Headers))
	for _, line := range lines {
		for i, c := range line {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for i := range widths {
		lines[1][i] = strings.Repeat("-", widths[i])
	}
	for _, line := range lines {
		for i, c := range line {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c) // cells beyond the header count are kept as-is
			}
		}
		b.WriteString("\n")
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	return b.String()
}
