package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestReportPrintAndFlattenGolden pins the two renderings of one small
// report: the aligned text uavbench prints and the flat metric keys
// BENCH_E<n>.json records — including the sweep_<row>_<col> naming the
// committed E15–E17 baselines use, a table with no name (E13's
// <row>_<col> keys), print-only columns and figures quoted in prose.
func TestReportPrintAndFlattenGolden(t *testing.T) {
	r := &Report{}
	r.Notef("two sweep points over a %d B/s link", 125_000)
	sweep := r.Table("sweep", Col{"clients", "%d", "clients"}, Col{"air KB", "%.1f", "air_bytes"},
		Col{"p99", "%v", "p99_us"}, Col{"saving", "%.1fx", ""})
	sweep.Row("1000", 1000, per(uint64(2048), 1024), usec(1500*time.Microsecond+400), 2.5)
	sweep.Row("100000", 100000, per(uint64(3072), 1024), usec(23*time.Millisecond), 12.25)
	modes := r.Table("", Col{"mode", "%s", ""}, Col{"lost", "%d", "lost"}, Col{"ok", "%v", "ok"})
	modes.Row("flood", "flood", 3, false)
	modes.Row("shaped", "shaped", 0, true)
	r.Notef("transfer completed in %v, %d frames dropped", rec("transfer_ms", msec(1875*time.Millisecond)), rec("dropped", uint64(7)))

	var out strings.Builder
	if err := r.Print(&out); err != nil {
		t.Fatal(err)
	}
	const wantText = `two sweep points over a 125000 B/s link
  clients  air KB    p99  saving
     1000     2.0  1.5ms    2.5x
   100000     3.0   23ms   12.2x
    mode  lost     ok
   flood     3  false
  shaped     0   true
transfer completed in 1.875s, 7 frames dropped
`
	if out.String() != wantText {
		t.Errorf("Print:\n%s\nwant:\n%s", out.String(), wantText)
	}
	wantMetrics := map[string]float64{
		"sweep_1000_clients": 1000, "sweep_1000_air_bytes": 2048, "sweep_1000_p99_us": 1500.4,
		"sweep_100000_clients": 100000, "sweep_100000_air_bytes": 3072, "sweep_100000_p99_us": 23000,
		"flood_lost": 3, "flood_ok": 0, "shaped_lost": 0, "shaped_ok": 1,
		"transfer_ms": 1875, "dropped": 7,
	}
	if got := r.Flatten(); !reflect.DeepEqual(got, wantMetrics) {
		t.Errorf("Flatten = %v\nwant %v", got, wantMetrics)
	}
}

func TestSelect(t *testing.T) {
	all := strings.Join(Names(false), ",")
	for _, tc := range []struct {
		spec, want, errHas string
	}{
		{spec: "all", want: all},
		{spec: "e13, E2,e3", want: "e2,e3,e13"}, // table order, case and spaces ignored
		{spec: "e2,all", want: all},
		{spec: "e17", want: "e17"},
		{spec: "nosuch", errHas: `unknown experiment "nosuch"; valid names: ` + all},
		{spec: "e1,e6", errHas: `"e6"`}, // E6 is a plain benchmark, not a scenario
		{spec: "", errHas: `unknown experiment ""`},
	} {
		picked, err := Select(tc.spec)
		if tc.errHas != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("Select(%q) error = %v, want one containing %q", tc.spec, err, tc.errHas)
			}
			continue
		}
		var names []string
		for _, e := range picked {
			names = append(names, e.Name)
		}
		if got := strings.Join(names, ","); err != nil || got != tc.want {
			t.Errorf("Select(%q) = %s, %v; want %s", tc.spec, got, err, tc.want)
		}
	}
}
