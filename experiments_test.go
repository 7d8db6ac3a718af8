package uavmw

import (
	"os"
	"path"
	"slices"
	"strings"
	"testing"

	"uavmw/internal/experiments"
)

// TestExperimentTableIsConsistent checks the experiment table against the
// committed baselines without a full-size run, so a misspelt guard key or
// an orphaned baseline file fails in -short too: names are unique and
// lower-case; baseline files and guarded experiments pair up one to one;
// every guard matches a metric of its baseline file and a metric the
// experiment emits at quick size (a sweep's row keys differ between quick
// and full size, which is why guards name rows by pattern).
func TestExperimentTableIsConsistent(t *testing.T) {
	var guarded []string
	seen := map[string]bool{}
	for _, exp := range experiments.All() {
		if exp.Name == "" || exp.Name != strings.ToLower(exp.Name) || seen[exp.Name] {
			t.Errorf("experiment name %q is empty, not lower-case or registered twice", exp.Name)
		}
		seen[exp.Name] = true
		if len(exp.Guards) == 0 {
			continue
		}
		guarded = append(guarded, "BENCH_"+strings.ToUpper(exp.Name)+".json")
		base := loadBaseline(t, exp)
		rep, _, err := exp.Run(true /* quick */, false /* virtual clock */)
		if err != nil {
			t.Fatalf("%s quick run: %v", exp.Name, err)
		}
		matches := func(pattern string, metrics map[string]float64) bool {
			for key := range metrics {
				if ok, err := path.Match(pattern, key); err != nil {
					t.Fatalf("%s guard %q: %v", exp.Name, pattern, err)
				} else if ok {
					return true
				}
			}
			return false
		}
		for _, g := range exp.Guards {
			if !matches(g.Key, base.Metrics) {
				t.Errorf("%s guard %q matches no metric of the committed baseline", exp.Name, g.Key)
			}
			if !matches(g.Key, rep.Flatten()) {
				t.Errorf("%s guard %q matches no metric the experiment emits", exp.Name, g.Key)
			}
		}
	}
	entries, err := os.ReadDir(baselineDir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		files = append(files, e.Name())
	}
	slices.Sort(guarded)
	if !slices.Equal(files, guarded) {
		t.Errorf("baseline files %v, guarded experiments expect %v", files, guarded)
	}
}
