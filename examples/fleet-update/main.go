// Command fleet-update demonstrates the §4.4 configuration/code-upload use
// case: "configuration files or services program code to be uploaded to the
// service containers". One operations node offers a configuration resource;
// every airframe node watches it; the operator publishes two revisions and
// all nodes converge on each — including a node that joins late and
// immediately receives the current revision.
//
// Run with:
//
//	go run ./examples/fleet-update [-nodes 3] [-loss 0.05]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"uavmw/internal/core"
	"uavmw/internal/filetransfer"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

func main() {
	nodes := flag.Int("nodes", 3, "fleet nodes watching the configuration")
	loss := flag.Float64("loss", 0.05, "simulated network loss")
	flag.Parse()
	if err := run(*nodes, *loss); err != nil {
		log.SetFlags(0)
		log.Fatalf("fleet-update: %v", err)
	}
}

func newNode(net *transport.Bus, id transport.NodeID) (*core.Node, error) {
	ep, err := net.Endpoint(id)
	if err != nil {
		return nil, err
	}
	return core.NewNode(
		core.WithDatagram(ep),
		core.WithAnnouncePeriod(30*time.Millisecond),
	)
}

func run(fleetSize int, loss float64) error {
	net := transport.NewSimBus(transport.SimConfig{Loss: loss, Seed: 11, Latency: time.Millisecond})
	defer net.Close()

	ops, err := newNode(net, "ops")
	if err != nil {
		return err
	}
	defer func() { _ = ops.Close() }()

	const resource = "fleet.config"
	offer, err := ops.Files().Offer(resource, "ops",
		[]byte("mission=survey\nmax_alt=120\nrevision=1\n"), qos.TransferQoS{})
	if err != nil {
		return err
	}
	ops.AnnounceNow()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var (
		mu       sync.Mutex
		received = map[transport.NodeID][]uint64{}
		wg       sync.WaitGroup
	)
	startWatcher := func(id transport.NodeID) (*core.Node, error) {
		n, err := newNode(net, id)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = n.Files().Watch(ctx, resource, filetransfer.FetchOptions{},
				func(data []byte, rev uint64) {
					mu.Lock()
					received[id] = append(received[id], rev)
					mu.Unlock()
					fmt.Printf("[%s] applied %s rev %d (%d bytes)\n", id, resource, rev, len(data))
				})
		}()
		return n, nil
	}

	fleet := make([]*core.Node, 0, fleetSize)
	for i := 0; i < fleetSize-1; i++ {
		n, err := startWatcher(transport.NodeID(fmt.Sprintf("uav-%d", i+1)))
		if err != nil {
			return err
		}
		defer func() { _ = n.Close() }()
		fleet = append(fleet, n)
	}

	waitForRev := func(rev uint64, count int) error {
		deadline := time.Now().Add(time.Minute)
		for {
			mu.Lock()
			have := 0
			for _, revs := range received {
				for _, r := range revs {
					if r == rev {
						have++
						break
					}
				}
			}
			mu.Unlock()
			if have >= count {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("rev %d reached %d of %d nodes", rev, have, count)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if err := waitForRev(1, fleetSize-1); err != nil {
		return err
	}

	fmt.Println("[ops] publishing revision 2...")
	if _, err := offer.Update([]byte("mission=survey\nmax_alt=150\nrevision=2\n")); err != nil {
		return err
	}
	if err := waitForRev(2, fleetSize-1); err != nil {
		return err
	}

	// A straggler joins late and must converge on the current revision
	// without a fresh publish.
	fmt.Println("[ops] late node joining fleet...")
	late, err := startWatcher("uav-late")
	if err != nil {
		return err
	}
	defer func() { _ = late.Close() }()
	deadline := time.Now().Add(time.Minute)
	for {
		mu.Lock()
		revs := received["uav-late"]
		mu.Unlock()
		if len(revs) > 0 && revs[len(revs)-1] == 2 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("late node never converged: %v", revs)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	wg.Wait()
	fmt.Printf("fleet-update complete: %d nodes converged on revision 2\n", fleetSize)
	return nil
}
