// Command uavmission runs the complete Figure 3 mission (§5) as a single
// process over a choice of substrates: the in-process bus, the bus with a
// simulated medium of configurable loss/latency, or real UDP loopback
// sockets.
// It is the flag-driven sibling of examples/imaging-mission.
//
//	uavmission -transport sim -loss 0.05 -latency 2ms -rows 3
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
	var (
		transportKind = flag.String("transport", "bus", "substrate: bus | sim | udp")
		rows          = flag.Int("rows", 2, "survey rows (2 photo sites each)")
		loss          = flag.Float64("loss", 0, "sim: loss probability")
		latency       = flag.Duration("latency", time.Millisecond, "sim: one-way latency")
		timescale     = flag.Float64("timescale", 40, "simulated seconds per wall second")
		quiet         = flag.Bool("quiet", false, "suppress ground-station terminal output")
		seed          = flag.Int64("seed", 9, "simulation seed")
	)
	flag.Parse()
	if err := run(*transportKind, *rows, *loss, *latency, *timescale, *quiet, *seed); err != nil {
		log.SetFlags(0)
		log.Fatalf("uavmission: %v", err)
	}
}

func run(kind string, rows int, loss float64, latency time.Duration, timescale float64, quiet bool, seed int64) error {
	plan := flightsim.SurveyPlan("mission", 41.2750, 1.9870, rows, 600, 200, 120, 25)

	var factory func(transport.NodeID) (transport.Transport, error)
	var wireStats func() (uint64, uint64, uint64)
	switch kind {
	case "bus":
		bus := transport.NewBus()
		factory = func(id transport.NodeID) (transport.Transport, error) {
			return bus.Endpoint(id)
		}
	case "sim":
		net := transport.NewSimBus(transport.SimConfig{Loss: loss, Latency: latency, Seed: seed})
		defer net.Close()
		factory = func(id transport.NodeID) (transport.Transport, error) {
			return net.Endpoint(id)
		}
		wireStats = net.WireStats
	case "udp":
		// Four real sockets on loopback; the address book is built as
		// nodes come up. Loopback rarely routes IP multicast, so group
		// sends use the unicast fan-out fallback.
		nodes := make(map[transport.NodeID]*transport.UDP)
		factory = func(id transport.NodeID) (transport.Transport, error) {
			udp, err := transport.NewUDP(id, "127.0.0.1:0", nil, transport.WithUnicastFanout())
			if err != nil {
				return nil, err
			}
			for peer, existing := range nodes {
				if err := udp.AddPeer(peer, existing.LocalAddr()); err != nil {
					return nil, err
				}
				if err := existing.AddPeer(id, udp.LocalAddr()); err != nil {
					return nil, err
				}
			}
			nodes[id] = udp
			return udp, nil
		}
	default:
		return fmt.Errorf("unknown transport %q", kind)
	}

	out := os.Stdout
	var w = out
	if quiet {
		devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		defer func() { _ = devnull.Close() }()
		w = devnull
	}

	start := time.Now()
	res, err := services.RunMission(services.MissionConfig{
		Plan:       plan,
		Transports: factory,
		TimeScale:  timescale,
		SampleRate: 25 * time.Millisecond,
		Out:        w,
		Timeout:    5 * time.Minute,
		Wind:       flightsim.Options{WindSpeedMS: 2, WindDirDeg: 280, Seed: seed},
	})
	if err != nil {
		return err
	}

	fmt.Printf("\n--- %s mission over %s: %v wall clock ---\n", plan.Name, kind, time.Since(start).Round(time.Millisecond))
	fmt.Printf("photos %d  stored %d  detections %d  track %d  gs-positions %d\n",
		res.Photos, res.Stored, res.Detections, res.TrackPoints, res.GSPositions)
	if wireStats != nil {
		packets, bytes, lost := wireStats()
		fmt.Printf("wire: %d packets, %.1f KB, %d lost\n", packets, float64(bytes)/1024, lost)
	}
	return nil
}
