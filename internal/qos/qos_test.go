package qos

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestPriorityString(t *testing.T) {
	tests := []struct {
		p    Priority
		want string
	}{
		{PriorityBulk, "bulk"},
		{PriorityLow, "low"},
		{PriorityNormal, "normal"},
		{PriorityHigh, "high"},
		{PriorityCritical, "critical"},
		{Priority(0), "priority(0)"},
		{Priority(99), "priority(99)"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Errorf("Priority(%d).String() = %q, want %q", tt.p, got, tt.want)
		}
	}
}

func TestPriorityValid(t *testing.T) {
	for _, p := range Levels() {
		if !p.Valid() {
			t.Errorf("Levels() returned invalid priority %v", p)
		}
	}
	if Priority(0).Valid() {
		t.Error("zero priority must be invalid")
	}
	if Priority(numPriorities + 1).Valid() {
		t.Error("out-of-range priority must be invalid")
	}
}

func TestPriorityIndexDense(t *testing.T) {
	seen := make(map[int]bool, NumLevels())
	for _, p := range Levels() {
		idx := p.Index()
		if idx < 0 || idx >= NumLevels() {
			t.Fatalf("Index() of %v = %d out of [0,%d)", p, idx, NumLevels())
		}
		if seen[idx] {
			t.Fatalf("duplicate index %d", idx)
		}
		seen[idx] = true
	}
	if got := Priority(0).Index(); got != -1 {
		t.Errorf("invalid priority Index() = %d, want -1", got)
	}
}

func TestPriorityOrdering(t *testing.T) {
	// The scheduler depends on numeric ordering matching urgency.
	if !(PriorityBulk < PriorityLow && PriorityLow < PriorityNormal &&
		PriorityNormal < PriorityHigh && PriorityHigh < PriorityCritical) {
		t.Fatal("priority levels are not monotonically increasing in urgency")
	}
}

func TestReliabilityString(t *testing.T) {
	tests := []struct {
		r    Reliability
		want string
	}{
		{BestEffort, "best-effort"},
		{ReliableARQ, "reliable-arq"},
		{Reliability(0), "reliability(0)"},
		{Reliability(3), "reliability(3)"},
	}
	for _, tt := range tests {
		if got := tt.r.String(); got != tt.want {
			t.Errorf("Reliability(%d).String() = %q, want %q", tt.r, got, tt.want)
		}
	}
}

func TestVariableQoSSilenceDeadline(t *testing.T) {
	tests := []struct {
		name string
		q    VariableQoS
		want time.Duration
	}{
		{"zero period disables", VariableQoS{}, 0},
		{"default factor 3", VariableQoS{Period: 100 * time.Millisecond}, 300 * time.Millisecond},
		{"explicit factor", VariableQoS{Period: time.Second, DeadlineFactor: 5}, 5 * time.Second},
		{"negative factor defaults", VariableQoS{Period: time.Second, DeadlineFactor: -2}, 3 * time.Second},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.q.SilenceDeadline(); got != tt.want {
				t.Errorf("SilenceDeadline() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestVariableQoSNormalize(t *testing.T) {
	q := VariableQoS{}.Normalize()
	if q.Priority != PriorityNormal {
		t.Errorf("default variable priority = %v, want %v", q.Priority, PriorityNormal)
	}
	if q.DeadlineFactor != 3 {
		t.Errorf("default deadline factor = %d, want 3", q.DeadlineFactor)
	}
	q2 := VariableQoS{Priority: PriorityCritical, DeadlineFactor: 7}.Normalize()
	if q2.Priority != PriorityCritical || q2.DeadlineFactor != 7 {
		t.Error("Normalize must not override explicit fields")
	}
}

func TestVariableQoSValidate(t *testing.T) {
	tests := []struct {
		name    string
		q       VariableQoS
		wantErr bool
	}{
		{"zero ok", VariableQoS{}, false},
		{"full ok", VariableQoS{Validity: time.Second, Period: 100 * time.Millisecond, Priority: PriorityHigh}, false},
		{"negative validity", VariableQoS{Validity: -time.Second}, true},
		{"negative period", VariableQoS{Period: -time.Millisecond}, true},
		{"bad priority", VariableQoS{Priority: Priority(42)}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.q.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrInvalidPolicy) {
				t.Errorf("error %v must wrap ErrInvalidPolicy", err)
			}
		})
	}
}

func TestEventQoSNormalize(t *testing.T) {
	q := EventQoS{}.Normalize()
	if q.Reliability != ReliableARQ {
		t.Errorf("default event reliability = %v, want %v", q.Reliability, ReliableARQ)
	}
	if q.Priority != PriorityHigh {
		t.Errorf("default event priority = %v, want %v", q.Priority, PriorityHigh)
	}
}

func TestEventQoSValidate(t *testing.T) {
	tests := []struct {
		name    string
		q       EventQoS
		wantErr bool
	}{
		{"zero ok", EventQoS{}, false},
		{"arq ok", EventQoS{Reliability: ReliableARQ, Priority: PriorityCritical}, false},
		{"zero reliability ok", EventQoS{Reliability: 0}, false},
		{"reliable arq ok", EventQoS{Reliability: ReliableARQ}, false},
		{"best effort rejected", EventQoS{Reliability: BestEffort}, true},
		{"unknown reliability rejected", EventQoS{Reliability: ReliableARQ + 1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.q.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestCallQoSNormalize(t *testing.T) {
	q := CallQoS{}.Normalize()
	if q.Binding != BindDynamic {
		t.Errorf("default binding = %v, want %v", q.Binding, BindDynamic)
	}
	if q.Priority != PriorityNormal {
		t.Errorf("default call priority = %v, want %v", q.Priority, PriorityNormal)
	}
}

func TestCallQoSValidate(t *testing.T) {
	tests := []struct {
		name    string
		q       CallQoS
		wantErr bool
	}{
		{"zero ok", CallQoS{}, false},
		{"static ok", CallQoS{Binding: BindStatic, Deadline: time.Second}, false},
		{"negative deadline", CallQoS{Deadline: -time.Second}, true},
		{"negative retries", CallQoS{Retries: -3}, true},
		{"hedge fraction ok", CallQoS{HedgeAfter: 0.25}, false},
		{"negative hedge", CallQoS{HedgeAfter: -0.1}, true},
		{"hedge at whole deadline", CallQoS{HedgeAfter: 1}, true},
		{"hedge beyond deadline", CallQoS{HedgeAfter: 1.5}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.q.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestTransferQoS(t *testing.T) {
	q := TransferQoS{}.Normalize()
	if q.Priority != PriorityBulk {
		t.Errorf("default transfer priority = %v, want %v", q.Priority, PriorityBulk)
	}
	if err := (TransferQoS{ChunkSize: -1}).Validate(); err == nil {
		t.Error("negative chunk size must fail validation")
	}
	if err := (TransferQoS{ChunkSize: 1024}).Validate(); err != nil {
		t.Errorf("valid transfer policy rejected: %v", err)
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	// Property: Normalize is idempotent for every policy type.
	if err := quick.Check(func(validity, period int64, factor int, onChange bool) bool {
		q := VariableQoS{
			Validity:       time.Duration(validity),
			Period:         time.Duration(period),
			DeadlineFactor: factor,
			OnChangeOnly:   onChange,
		}
		once := q.Normalize()
		return once == once.Normalize()
	}, nil); err != nil {
		t.Errorf("VariableQoS.Normalize not idempotent: %v", err)
	}
	if err := quick.Check(func(rel, prio uint8) bool {
		q := EventQoS{
			Reliability: Reliability(rel),
			Priority:    Priority(prio),
		}
		once := q.Normalize()
		return once == once.Normalize()
	}, nil); err != nil {
		t.Errorf("EventQoS.Normalize not idempotent: %v", err)
	}
}

func TestValidatedPoliciesSurviveNormalize(t *testing.T) {
	// Property: a policy that validates still validates after Normalize.
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(func(validity, period uint32, factor uint8) bool {
		q := VariableQoS{
			Validity:       time.Duration(validity),
			Period:         time.Duration(period),
			DeadlineFactor: int(factor),
		}
		if q.Validate() != nil {
			return true // not applicable
		}
		return q.Normalize().Validate() == nil
	}, cfg); err != nil {
		t.Error(err)
	}
}

// e14Bearers is the E14-style two-bearer set used by the BearerOrder tests:
// a fat short-range low-latency WiFi pipe and a slow long-range robust
// radio modem.
func e14Bearers() map[string]BearerProfile {
	return map[string]BearerProfile{
		"wifi":  {RateBPS: 125_000, Latency: 5 * time.Millisecond, Robustness: 1},
		"radio": {RateBPS: 31_250, Latency: 40 * time.Millisecond, Robustness: 10},
	}
}

func TestLinkPolicyDefaultOrderPerClass(t *testing.T) {
	bearers := e14Bearers()
	cases := []struct {
		p    Priority
		want []string
	}{
		{PriorityBulk, []string{"wifi", "radio"}},     // fat pipe first
		{PriorityLow, []string{"wifi", "radio"}},      // fat pipe first
		{PriorityNormal, []string{"wifi", "radio"}},   // low latency first
		{PriorityHigh, []string{"radio", "wifi"}},     // robust first
		{PriorityCritical, []string{"radio", "wifi"}}, // robust first
	}
	for _, tc := range cases {
		got := BearerOrder(tc.p, bearers)
		if len(got) != len(tc.want) {
			t.Fatalf("%v: order %v, want %v", tc.p, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%v: order %v, want %v", tc.p, got, tc.want)
				break
			}
		}
	}
}

func TestLinkPolicyOrderDeterministicOnTies(t *testing.T) {
	bearers := map[string]BearerProfile{"b": {}, "a": {}, "c": {}}
	for i := 0; i < 10; i++ {
		got := BearerOrder(PriorityNormal, bearers)
		if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
			t.Fatalf("tie order = %v, want [a b c]", got)
		}
	}
}
