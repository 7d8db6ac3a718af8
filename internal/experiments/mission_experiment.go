package experiments

import (
	"time"

	"uavmw/internal/flightsim"
	"uavmw/internal/services"
	"uavmw/internal/transport"
)

// E9Result is the Figure 3 mission flown end to end (§5): four containers
// and six services on the in-process bus, a survey plan with one photo
// site per leg.
type E9Result struct {
	Waypoints int
	services.MissionResult
}

// RunE9 flies a survey of the given number of rows at 60x time compression.
func RunE9(rows int) (*E9Result, error) {
	plan := flightsim.SurveyPlan("bench", 41.2750, 1.9870, rows, 600, 200, 120, 25)
	bus := transport.NewBus()
	res, err := services.RunMission(services.MissionConfig{
		Plan: plan,
		Transports: func(id transport.NodeID) (transport.Transport, error) {
			return bus.Endpoint(id)
		},
		TimeScale:  60,
		SampleRate: 20 * time.Millisecond,
		Timeout:    3 * time.Minute,
	})
	if err != nil {
		return nil, err
	}
	return &E9Result{Waypoints: len(plan.Waypoints), MissionResult: *res}, nil
}
