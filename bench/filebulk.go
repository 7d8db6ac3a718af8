package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"uavmw/internal/core"
	"uavmw/internal/filetransfer"
	"uavmw/internal/qos"
	"uavmw/internal/transport"
)

const (
	fileSize    = 1 << 20 // 874 chunks of 1200 B
	fileTimeout = 5 * time.Second
	fileName    = "camera.frame"
	// fileThink is the fetcher's pause between two fetches. Without it
	// about one fetch in a thousand waits out its whole timeout: the
	// completion ack of fetch N is sent after Fetch has returned, so it
	// can reach the provider after the subscription of fetch N+1 and
	// delete it (acks carry no fetch incarnation — the
	// BenchmarkE5_LocalBypass flake of the ROADMAP). The library is not
	// this benchmark's to change, and the contract wants workloads on
	// which no op fails; 5 ms lets the ack land first.
	fileThink = 5 * time.Millisecond
)

// fileBulk is file_bulk (§4.4): one fetcher repeatedly fetches a seeded
// 1 MiB file from the other node over the bus with default TransferQoS.
// A failed or timed-out fetch is a failed op; the run goes on.
type fileBulk struct {
	*harness
	fetcher *core.Node
	digest  [sha256.Size]byte
}

func buildFile(seed int64, tr *tracer) (_ instance, err error) {
	rng := rand.New(rand.NewSource(seed))
	w := &fileBulk{harness: newHarness(tr)}
	defer w.closeOnError(&err)
	w.boundary = make(chan func())
	data, digest := fileBytes(rng, fileSize)
	w.digest = digest
	bus := transport.NewBus()
	camera, err := w.addBusNode(bus, "camera")
	if err != nil {
		return nil, err
	}
	if w.fetcher, err = w.addBusNode(bus, "storage"); err != nil {
		return nil, err
	}
	offer, err := camera.Files().Offer(fileName, "bench", data, qos.TransferQoS{})
	if err != nil {
		return nil, err
	}
	w.rounds = offer.Rounds
	camera.AnnounceNow()
	if err := w.discovered(); err != nil {
		return nil, fmt.Errorf("file_bulk: %w", err)
	}

	// First correct op.
	if !w.fetch() {
		return nil, fmt.Errorf("file_bulk: first fetch failed: %v", w.failureReasons())
	}
	return w, nil
}

func (w *fileBulk) fetch() bool {
	w.attempted.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), fileTimeout)
	t0 := time.Now()
	sp := w.tr.start()
	data, _, err := w.fetcher.Files().Fetch(ctx, fileName, filetransfer.FetchOptions{})
	w.tr.finishCall(sp, traceID{})
	lat := time.Since(t0)
	cancel()
	switch {
	case err != nil:
		w.fail(err.Error())
		return false
	case sha256.Sum256(data) != w.digest:
		w.fail("fetched bytes differ from the offer")
		return false
	}
	w.good(lat)
	return true
}

func (w *fileBulk) run() {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		for {
			// Between two fetches no op is in flight: the one place a
			// window over this workload can start or end without
			// cutting a 100 ms op in two.
			w.atBoundary()
			if !sleepStop(fileThink, w.stopCh) {
				return
			}
			w.fetch()
		}
	}()
}

func (w *fileBulk) stop() { w.stopGenerators() }
