package services

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"uavmw/internal/flightsim"
	"uavmw/internal/transport"
)

const (
	testLat = 41.2750
	testLon = 1.9870
)

// testPlan is a short two-row survey with 4 photo sites.
func testPlan() flightsim.FlightPlan {
	return flightsim.SurveyPlan("test-survey", testLat, testLon, 2, 600, 200, 120, 25)
}

func busFactory(bus *transport.Bus) func(transport.NodeID) (transport.Transport, error) {
	return func(id transport.NodeID) (transport.Transport, error) {
		return bus.Endpoint(id)
	}
}

func TestFigure3MissionOnBus(t *testing.T) {
	var gsOut bytes.Buffer
	var mu sync.Mutex
	syncOut := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return gsOut.Write(p)
	})

	plan := testPlan()
	res, err := RunMission(MissionConfig{
		Plan:       plan,
		Transports: busFactory(transport.NewBus()),
		TimeScale:  40,
		SampleRate: 20 * time.Millisecond,
		Out:        syncOut,
		Timeout:    90 * time.Second,
	})
	if err != nil {
		t.Fatalf("RunMission: %v", err)
	}

	if res.Photos != 4 {
		t.Errorf("photos = %d, want 4", res.Photos)
	}
	if res.Stored != 4 {
		t.Errorf("stored = %d, want 4", res.Stored)
	}
	// Camera policy: photos 1-4 -> targets on indexes 3 (1+index%2 when
	// index%3==0): index 3 has targets, so at least one detection.
	if res.Detections == 0 {
		t.Error("no detections in a plan with targeted photos")
	}
	if res.TrackPoints == 0 {
		t.Error("no GPS track recorded")
	}
	if res.GSPositions == 0 {
		t.Error("ground station saw no positions")
	}
	if res.GSEvents[EvtMissionComplete] != 1 {
		t.Errorf("mission-complete events = %d", res.GSEvents[EvtMissionComplete])
	}
	if res.GSEvents[EvtPhotoReady] != 4 {
		t.Errorf("photo-ready events = %d", res.GSEvents[EvtPhotoReady])
	}

	mu.Lock()
	out := gsOut.String()
	mu.Unlock()
	for _, want := range []string{"[gs] pos", EvtPhotoReady, EvtMissionComplete} {
		if !strings.Contains(out, want) {
			t.Errorf("ground station output missing %q", want)
		}
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestFigure3MissionUnderLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy mission is slow")
	}
	net := transport.NewSimBus(transport.SimConfig{Loss: 0.05, Seed: 13, Latency: time.Millisecond})
	defer net.Close()
	res, err := RunMission(MissionConfig{
		Plan: testPlan(),
		Transports: func(id transport.NodeID) (transport.Transport, error) {
			return net.Endpoint(id)
		},
		TimeScale:  40,
		SampleRate: 20 * time.Millisecond,
		Timeout:    120 * time.Second,
	})
	if err != nil {
		t.Fatalf("mission under 5%% loss: %v", err)
	}
	if res.Photos != 4 || res.Stored != 4 {
		t.Errorf("photos=%d stored=%d, want 4/4", res.Photos, res.Stored)
	}
}

func TestMissionConfigValidation(t *testing.T) {
	if _, err := RunMission(MissionConfig{Plan: testPlan()}); err == nil {
		t.Error("missing transport factory must fail")
	}
	bad := testPlan()
	bad.Waypoints = bad.Waypoints[:1]
	if _, err := RunMission(MissionConfig{
		Plan:       bad,
		Transports: busFactory(transport.NewBus()),
	}); err == nil {
		t.Error("invalid plan must fail")
	}
}

func TestPositionValueCanonical(t *testing.T) {
	ac, err := flightsim.New(testPlan(), flightsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := PositionValue(ac.State())
	if err := checkPosition(v); err != nil {
		t.Fatal(err)
	}
}

func checkPosition(v map[string]any) error {
	// TypePosition.Check through the presentation layer.
	return presentationCheck(TypePosition, v)
}

func TestMissionTimesOutWhenCameraMissing(t *testing.T) {
	// A deployment without the camera can't satisfy mission control's
	// dependency check (the §4.3 emergency condition).
	bus := transport.NewBus()
	factory := busFactory(bus)
	plan := testPlan()
	_, err := runMissionWithoutCamera(t, plan, factory)
	if err == nil {
		t.Fatal("mission without camera must fail startup")
	}
	if !errors.Is(err, errDependency()) && !strings.Contains(err.Error(), "emergency") {
		t.Errorf("unexpected failure mode: %v", err)
	}
}
