// Package metricstest is how tests read a metrics.Registry. The registry is
// the only stats surface a plane has, and Registry.SumCounters answers zero
// for a family that does not exist — right for an experiment report, wrong
// for an assertion, where a misspelt family name must not pass as "no
// events yet".
package metricstest

import (
	"slices"
	"testing"

	"uavmw/internal/metrics"
	"uavmw/internal/uerr"
)

// Counter totals every series of counter family component.name whose
// labels include all of match, and fails the test when the registry holds
// no such family. A "<component>.errors" family appears with its first
// error, so there an absent family reads as zero — provided some uerr code
// is registered under the component.
func Counter(t testing.TB, reg *metrics.Registry, component, name string, match ...metrics.Label) uint64 {
	t.Helper()
	id := metrics.KindCounter + " " + component + "." + name
	if !slices.Contains(reg.Snapshot().FamilyList(), id) && !(name == "errors" && hasCodes(component)) {
		t.Fatalf("registry has no family %q", id)
	}
	return reg.SumCounters(component, name, match...)
}

func hasCodes(component string) bool {
	return slices.ContainsFunc(uerr.RegisteredCodes(), func(c uerr.Code) bool {
		return c.Component() == component
	})
}
