// Command imaging-mission runs the paper's §5 application example (Figure
// 3) end to end: a GPS service feeds the position variable; mission control
// prepares the camera via remote invocation, fires photo events at the
// plan's photo waypoints; the camera publishes each frame as a file
// resource distributed by multicast file transfer to the storage and video
// services; the video service raises detection events the ground station
// and mission control observe.
//
// Run with:
//
//	go run ./examples/imaging-mission [-rows 2] [-loss 0.02] [-timescale 40]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"uavmw/internal/flightsim"
	"uavmw/internal/services"
	"uavmw/internal/transport"
)

func main() {
	rows := flag.Int("rows", 2, "survey rows (2 photo sites each)")
	loss := flag.Float64("loss", 0.0, "simulated network loss probability [0,1)")
	timescale := flag.Float64("timescale", 40, "simulated seconds per wall-clock second")
	seed := flag.Int64("seed", 7, "simulation seed")
	flag.Parse()
	if err := run(*rows, *loss, *timescale, *seed); err != nil {
		log.SetFlags(0)
		log.Fatalf("imaging-mission: %v", err)
	}
}

func run(rows int, loss, timescale float64, seed int64) error {
	plan := flightsim.SurveyPlan("campus-survey", 41.2750, 1.9870, rows, 600, 200, 120, 25)
	photoSites := 0
	for _, wp := range plan.Waypoints {
		if wp.Photo {
			photoSites++
		}
	}
	fmt.Printf("mission %q: %d waypoints, %d photo sites, %.1f km, loss %.1f%%\n",
		plan.Name, len(plan.Waypoints), photoSites, plan.TotalDistanceM()/1000, loss*100)

	net := transport.NewSimBus(transport.SimConfig{
		Loss:    loss,
		Seed:    seed,
		Latency: time.Millisecond,
	})
	defer net.Close()

	start := time.Now()
	res, err := services.RunMission(services.MissionConfig{
		Plan: plan,
		Transports: func(id transport.NodeID) (transport.Transport, error) {
			return net.Endpoint(id)
		},
		TimeScale:  timescale,
		SampleRate: 25 * time.Millisecond,
		Out:        os.Stdout,
		Timeout:    5 * time.Minute,
		Wind:       flightsim.Options{WindSpeedMS: 3, WindDirDeg: 310, GustMS: 1, Seed: seed},
	})
	if err != nil {
		return err
	}

	packets, bytes, lost := net.WireStats()
	fmt.Printf("\n--- mission summary (%v wall clock) ---\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("photos requested/stored : %d / %d\n", res.Photos, res.Stored)
	fmt.Printf("detections raised       : %d\n", res.Detections)
	fmt.Printf("gps track points stored : %d\n", res.TrackPoints)
	fmt.Printf("ground station samples  : %d positions, %d photo events, %d detections\n",
		res.GSPositions, res.GSEvents[services.EvtPhotoReady], res.GSEvents[services.EvtDetection])
	fmt.Printf("network                 : %d packets, %.1f KB on wire, %d lost\n",
		packets, float64(bytes)/1024, lost)
	return nil
}
