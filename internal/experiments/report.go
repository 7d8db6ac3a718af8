package experiments

import (
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"text/tabwriter"
	"time"
)

// Report is what one experiment run produced: prose notes and result
// tables in print order, every recorded figure under a flat metric key,
// and the observability snapshot of the scenario's instrumented node. A
// figure is written once — its printed form and its metric key sit in the
// same Row or Notef call — so the table a reader sees and the
// BENCH_E<n>.json a guard replays cannot drift apart.
type Report struct {
	sections []any // string (one prose line) or *Table
	metrics  map[string]float64
	// Snapshot is metrics.Snapshot.Text of the node the scenario
	// instruments; empty when it has none.
	Snapshot string
}

// Col is one table column: its header, print verb and metric key together.
// A column with an empty Key is printed but not recorded.
type Col struct {
	Head   string // column header
	Format string // fmt verb for a cell: "%d", "%.1fx", "%v"
	Key    string // metric key suffix
}

// Table is a result table of a Report.
type Table struct {
	report *Report
	name   string
	cols   []Col
	lines  [][]string // rendered cells, the header line first
}

// fig is a figure whose recorded number differs from its printed form — a
// duration printed rounded and recorded in microseconds, a byte count
// printed in KB — and, for a figure quoted in prose, the key it is recorded
// under.
type fig struct {
	key  string
	num  float64
	show any
}

// usec and msec record a duration in that unit and print it rounded to it.
func usec(d time.Duration) fig { return fig{num: us(d), show: d.Round(time.Microsecond)} }
func msec(d time.Duration) fig { return fig{num: ms(d), show: d.Round(time.Millisecond)} }

// per records the number v and prints v/div (bytes as KB, frames/s as
// Mframes/s).
func per(v any, div float64) fig {
	_, num, _ := figure(v)
	return fig{num: num, show: num / div}
}

// rec keys a figure quoted in a Notef line; v is a number or a fig.
func rec(key string, v any) fig {
	show, num, ok := figure(v)
	if !ok {
		panic(fmt.Sprintf("experiments: metric %q recorded from non-numeric %T", key, v))
	}
	return fig{key: key, num: num, show: show}
}

// quantile returns the q-quantile of lat, an order statistic (nearest
// rank): a measured latency, not a histogram bucket's bound.
func quantile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sorted := slices.Clone(lat)
	slices.Sort(sorted)
	return sorted[int(q*float64(len(sorted)-1))]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// figure splits a cell into what is printed and what is recorded; strings
// and other non-numeric values print only.
func figure(v any) (show any, num float64, numeric bool) {
	if f, ok := v.(fig); ok {
		return f.show, f.num, true
	}
	switch rv := reflect.ValueOf(v); rv.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return v, float64(rv.Int()), true
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return v, float64(rv.Uint()), true
	case reflect.Float32, reflect.Float64:
		return v, rv.Float(), true
	case reflect.Bool:
		if rv.Bool() {
			return v, 1, true
		}
		return v, 0, true
	}
	return v, 0, false
}

func (r *Report) record(key string, num float64) {
	if r.metrics == nil {
		r.metrics = map[string]float64{}
	}
	r.metrics[key] = num
}

// Notef appends one prose line. Arguments built with rec are recorded
// under their key and printed like the value they wrap.
func (r *Report) Notef(format string, args ...any) {
	shown := make([]any, len(args))
	for i, a := range args {
		shown[i] = a
		if f, ok := a.(fig); ok {
			shown[i] = f.show
			if f.key != "" {
				r.record(f.key, f.num)
			}
		}
	}
	r.sections = append(r.sections, fmt.Sprintf(format, shown...))
}

// Table starts a table. Its cells are recorded as <name>_<row>_<Key>; an
// empty name or row key drops out of the metric key.
func (r *Report) Table(name string, cols ...Col) *Table {
	t := &Table{report: r, name: name, cols: cols, lines: make([][]string, 1)}
	for _, c := range cols {
		t.lines[0] = append(t.lines[0], c.Head)
	}
	r.sections = append(r.sections, t)
	return t
}

// Row appends one row, one cell per column: each cell is printed with its
// column's verb and, when numeric, recorded under its column's key.
func (t *Table) Row(key string, cells ...any) {
	if len(cells) != len(t.cols) {
		panic(fmt.Sprintf("experiments: table %q row %q has %d cells for %d columns", t.name, key, len(cells), len(t.cols)))
	}
	var line []string
	for i, c := range t.cols {
		show, num, numeric := figure(cells[i])
		if c.Key != "" && numeric {
			t.report.record(metricKey(t.name, key, c.Key), num)
		}
		line = append(line, fmt.Sprintf(c.Format, show))
	}
	t.lines = append(t.lines, line)
}

func metricKey(parts ...string) string {
	var kept []string
	for _, p := range parts {
		if p != "" {
			kept = append(kept, p)
		}
	}
	return strings.Join(kept, "_")
}

// Print writes the notes and tables in the order they were added, each
// table with its columns aligned.
func (r *Report) Print(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	for _, s := range r.sections {
		if t, isTable := s.(*Table); isTable {
			for _, line := range t.lines {
				fmt.Fprintln(tw, strings.Join(line, "\t")+"\t")
			}
		} else {
			fmt.Fprintln(tw, s)
		}
		// Flushing per section keeps adjacent tables from sharing column
		// widths, and is where the tabwriter reports w's write errors.
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Flatten returns every recorded figure under its flat metric key — the
// `metrics` object of BENCH_E<n>.json. The caller must not modify it.
func (r *Report) Flatten() map[string]float64 {
	if r.metrics == nil {
		return map[string]float64{}
	}
	return r.metrics
}
