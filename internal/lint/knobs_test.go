package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// tuningKnobs is every exported With* constructor and every exported field
// of an exported *Config, *Options, *Profile or *Budget struct in non-test
// code under internal/. Each is a value a user can set; the list only
// shrinks. A knob set to one value everywhere outside tests is a constant,
// and a value settable in two places gets one of them removed.
var tuningKnobs = []string{
	"internal/core.ResourceBudget.CPUShare",
	"internal/core.ResourceBudget.MemoryKB",
	"internal/core.WithARQ",
	"internal/core.WithAnnouncePeriod",
	"internal/core.WithBearer",
	"internal/core.WithClock",
	"internal/core.WithDatagram",
	"internal/core.WithDirectoryTTL",
	"internal/core.WithEncoding",
	"internal/core.WithFailureDeadline",
	"internal/core.WithIngressShards",
	"internal/core.WithResourceBudget",
	"internal/core.WithScheduler",
	"internal/discovery.Config.Epoch",
	"internal/discovery.Config.Load",
	"internal/discovery.Config.Offer",
	"internal/discovery.Config.OfferApplied",
	"internal/discovery.Config.PeerGone",
	"internal/discovery.Config.Period",
	"internal/discovery.Config.Tick",
	"internal/egress.Config.BulkBurst",
	"internal/egress.Config.BulkRateBPS",
	"internal/egress.Config.Clock",
	"internal/egress.Config.CoalesceMax",
	"internal/egress.Config.Metrics",
	"internal/flightsim.Options.ClimbRateMS",
	"internal/flightsim.Options.GustMS",
	"internal/flightsim.Options.Seed",
	"internal/flightsim.Options.TurnRateDps",
	"internal/flightsim.Options.WindDirDeg",
	"internal/flightsim.Options.WindSpeedMS",
	"internal/gateway.Options.QueueLen",
	"internal/gateway.Options.Shards",
	"internal/gateway.Options.StallLimit",
	"internal/gateway.Options.WriteStall",
	"internal/ingress.Config.Clock",
	"internal/ingress.Config.Deliver",
	"internal/ingress.Config.Metrics",
	"internal/ingress.Config.Shards",
	"internal/link.PlaneConfig.Clock",
	"internal/link.PlaneConfig.Deadline",
	"internal/link.PlaneConfig.Directory",
	"internal/link.PlaneConfig.Period",
	"internal/link.PlaneConfig.Reroute",
	"internal/link.PlaneConfig.Self",
	"internal/link.PlaneConfig.Send",
	"internal/protocol.WithClock",
	"internal/protocol.WithMaxRetries",
	"internal/protocol.WithMetrics",
	"internal/qos.BearerProfile.BulkBurst",
	"internal/qos.BearerProfile.BulkRateBPS",
	"internal/qos.BearerProfile.Latency",
	"internal/qos.BearerProfile.RateBPS",
	"internal/qos.BearerProfile.Robustness",
	"internal/scheduler.WithPoolClock",
	"internal/scheduler.WithQueueCap",
	"internal/scheduler.WithWorkers",
	"internal/services.MissionConfig.AnnouncePeriod",
	"internal/services.MissionConfig.Clock",
	"internal/services.MissionConfig.Out",
	"internal/services.MissionConfig.Plan",
	"internal/services.MissionConfig.SampleRate",
	"internal/services.MissionConfig.TimeScale",
	"internal/services.MissionConfig.Timeout",
	"internal/services.MissionConfig.Transports",
	"internal/services.MissionConfig.Wind",
	"internal/transport.LinkConfig.BandwidthBPS",
	"internal/transport.LinkConfig.Blocked",
	"internal/transport.SimConfig.Clock",
	"internal/transport.SimConfig.Latency",
	"internal/transport.SimConfig.Loss",
	"internal/transport.SimConfig.Seed",
	"internal/transport.WithGroupPortBase",
	"internal/transport.WithUnicastFanout",
	"internal/variables.SubscribeOptions.InitialTimeout",
	"internal/variables.SubscribeOptions.OnSample",
	"internal/variables.SubscribeOptions.OnTimeout",
	"internal/variables.SubscribeOptions.QoS",
	"internal/variables.SubscribeOptions.RequireInitial",
}

// knobStruct reports whether an exported struct type of this name carries
// settable values.
func knobStruct(name string) bool {
	for _, suffix := range []string{"Config", "Options", "Profile", "Budget"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// TestTuningKnobsAreAllowlisted holds the option surface under internal/ to
// tuningKnobs, so a new knob fails until the change that adds it lists it.
func TestTuningKnobsAreAllowlisted(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	var got []string
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel) + "."
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil && decl.Name.IsExported() && strings.HasPrefix(decl.Name.Name, "With") {
					got = append(got, pkg+decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() || !knobStruct(ts.Name.Name) {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, name := range fieldNames(field) {
							if ast.IsExported(name) {
								got = append(got, pkg+ts.Name.Name+"."+name)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	for _, k := range got {
		if !slices.Contains(tuningKnobs, k) {
			t.Errorf("%s is a tuning knob missing from tuningKnobs: make it a constant, or list it", k)
		}
	}
	for _, k := range tuningKnobs {
		if !slices.Contains(got, k) {
			t.Errorf("%s is gone: drop it from tuningKnobs", k)
		}
	}
}

// fieldNames names a struct field; an embedded field goes by its type.
func fieldNames(field *ast.Field) []string {
	var names []string
	for _, n := range field.Names {
		names = append(names, n.Name)
	}
	if len(names) == 0 {
		typ := field.Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		switch typ := typ.(type) {
		case *ast.Ident:
			names = append(names, typ.Name)
		case *ast.SelectorExpr:
			names = append(names, typ.Sel.Name)
		}
	}
	return names
}
