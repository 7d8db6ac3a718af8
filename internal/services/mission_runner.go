package services

import (
	"errors"
	"fmt"
	"io"
	"time"

	"uavmw/internal/clock"
	"uavmw/internal/core"
	"uavmw/internal/flightsim"
	"uavmw/internal/transport"
)

// MissionConfig assembles the paper's Figure 3 deployment: four containers
// (flight computer, payload computer, storage computer, ground station)
// running the six services, on any transport substrate.
type MissionConfig struct {
	// Plan is the flight plan; required.
	Plan flightsim.FlightPlan
	// Transports creates the per-node transport; required. Called with
	// node ids "fcs", "payload", "storage", "ground".
	Transports func(id transport.NodeID) (transport.Transport, error)
	// TimeScale compresses simulated flight time (default 20x).
	TimeScale float64
	// SampleRate is the GPS publication period (default 25 ms).
	SampleRate time.Duration
	// Out receives ground-station terminal output (default io.Discard).
	Out io.Writer
	// Timeout bounds the whole mission (default 2 min).
	Timeout time.Duration
	// AnnouncePeriod tunes discovery (default 50 ms).
	AnnouncePeriod time.Duration
	// Wind adds disturbance to the airframe model.
	Wind flightsim.Options
	// Clock injects the mission's time source (nil means the wall clock).
	// With a clock.Virtual, the whole Figure 3 deployment — discovery,
	// GPS sampling, transfers, the completion poll — runs in
	// discrete-event time; callers drive it from a registered goroutine
	// (clock.Virtual.Run).
	Clock clock.Clock
}

// MissionResult summarizes a completed mission.
type MissionResult struct {
	// Photos requested by mission control.
	Photos uint32
	// Detections raised by the video service.
	Detections uint64
	// Stored files archived by the storage service.
	Stored int
	// TrackPoints recorded by the storage service.
	TrackPoints int
	// GSPositions and GSEvents are ground-station reception counts.
	GSPositions uint64
	GSEvents    map[string]uint64
	// Elapsed is wall-clock mission duration.
	Elapsed time.Duration
}

// ErrMissionTimeout reports an incomplete mission.
var ErrMissionTimeout = errors.New("mission timed out")

// Node ids of the Figure 3 deployment.
const (
	NodeFCS     transport.NodeID = "fcs"
	NodePayload transport.NodeID = "payload"
	NodeStorage transport.NodeID = "storage"
	NodeGround  transport.NodeID = "ground"
)

// RunMission executes the Figure 3 scenario end to end and returns the
// outcome. It is used by the imaging-mission example, the uavmission CLI,
// the F3 integration test and the E9 benchmark.
func RunMission(cfg MissionConfig) (*MissionResult, error) {
	if cfg.Transports == nil {
		return nil, fmt.Errorf("services: no transport factory")
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 20
	}
	if cfg.SampleRate <= 0 {
		cfg.SampleRate = 25 * time.Millisecond
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	if cfg.AnnouncePeriod <= 0 {
		cfg.AnnouncePeriod = 50 * time.Millisecond
	}

	aircraft, err := flightsim.New(cfg.Plan, cfg.Wind)
	if err != nil {
		return nil, err
	}
	clk := clock.Or(cfg.Clock)

	newNode := func(id transport.NodeID) (*core.Node, error) {
		tr, err := cfg.Transports(id)
		if err != nil {
			return nil, err
		}
		return core.NewNode(
			core.WithDatagram(tr),
			core.WithClock(clk),
			core.WithAnnouncePeriod(cfg.AnnouncePeriod),
		)
	}

	nodes := make([]*core.Node, 0, 4)
	defer func() {
		for _, n := range nodes {
			_ = n.Close()
		}
	}()
	fcs, err := newNode(NodeFCS)
	if err != nil {
		return nil, err
	}
	nodes = append(nodes, fcs)
	payload, err := newNode(NodePayload)
	if err != nil {
		return nil, err
	}
	nodes = append(nodes, payload)
	storageNode, err := newNode(NodeStorage)
	if err != nil {
		return nil, err
	}
	nodes = append(nodes, storageNode)
	ground, err := newNode(NodeGround)
	if err != nil {
		return nil, err
	}
	nodes = append(nodes, ground)

	gps := &GPS{Aircraft: aircraft, SampleRate: cfg.SampleRate, TimeScale: cfg.TimeScale}
	mc := &MissionControl{Plan: cfg.Plan}
	camera := &Camera{}
	video := &Video{}
	storage := &Storage{}
	gs := &GroundStation{Out: cfg.Out}

	// Mission control registers (and therefore starts) before the GPS:
	// its Start blocks until the camera is prepared and subscribed, so no
	// position sample can race past an unarmed mission state machine.
	if _, err := fcs.AddService(mc); err != nil {
		return nil, err
	}
	if _, err := fcs.AddService(gps); err != nil {
		return nil, err
	}
	if _, err := payload.AddService(camera); err != nil {
		return nil, err
	}
	if _, err := payload.AddService(video); err != nil {
		return nil, err
	}
	if _, err := storageNode.AddService(storage); err != nil {
		return nil, err
	}
	if _, err := ground.AddService(gs); err != nil {
		return nil, err
	}

	// Bring up providers first so mission control's dependency check and
	// camera preparation resolve; its Init polls across discovery anyway.
	start := clk.Now()
	if err := payload.StartServices(); err != nil {
		return nil, err
	}
	if err := storageNode.StartServices(); err != nil {
		return nil, err
	}
	if err := ground.StartServices(); err != nil {
		return nil, err
	}
	if err := fcs.StartServices(); err != nil {
		return nil, err
	}

	expectedPhotos := 0
	for _, wp := range cfg.Plan.Waypoints {
		if wp.Photo {
			expectedPhotos++
		}
	}

	deadline := clk.Now().Add(cfg.Timeout)
	for {
		photos, _, complete := mc.Progress()
		processed, _ := video.Stats()
		if complete &&
			int(photos) == expectedPhotos &&
			storage.FileCount() == expectedPhotos &&
			processed == uint64(expectedPhotos) &&
			gs.EventCount(EvtMissionComplete) >= 1 {
			// The ground station has the completion event, so every
			// acknowledgment round-trip has settled; teardown is quiet.
			break
		}
		if clk.Now().After(deadline) {
			return nil, fmt.Errorf(
				"services: photos=%d/%d stored=%d processed=%d complete=%v: %w",
				photos, expectedPhotos, storage.FileCount(), processed, complete,
				ErrMissionTimeout)
		}
		clk.Sleep(5 * time.Millisecond)
	}

	photos, detections, _ := mc.Progress()
	result := &MissionResult{
		Photos:      photos,
		Detections:  detections,
		Stored:      storage.FileCount(),
		TrackPoints: storage.TrackLen(),
		GSPositions: gs.Positions(),
		Elapsed:     clk.Since(start),
		GSEvents: map[string]uint64{
			EvtPhotoRequest:    gs.EventCount(EvtPhotoRequest),
			EvtPhotoReady:      gs.EventCount(EvtPhotoReady),
			EvtDetection:       gs.EventCount(EvtDetection),
			EvtMissionComplete: gs.EventCount(EvtMissionComplete),
		},
	}
	return result, nil
}
