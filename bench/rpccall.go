package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"uavmw/internal/core"
	"uavmw/internal/presentation"
	"uavmw/internal/protocol"
	"uavmw/internal/qos"
	"uavmw/internal/services"
	"uavmw/internal/transport"
)

const rpcTimeout = time.Second

// rpcRetType is the reply: computed from the arguments so every return
// value is checkable.
var rpcRetType = presentation.MustParse("{ok:bool,index:u32}")

// rpcExpected is the function the provider implements: index packs the
// waypoint with the caller tag (so the tracing decorators can tell whose
// reply a value is), ok mirrors the complete flag.
func rpcExpected(args map[string]any) (ok bool, index uint32) {
	wp, _ := args["wp"].(uint32)
	tag, _ := args["fix"].(uint8)
	done, _ := args["complete"].(bool)
	return done, wp<<rpcTagBits | uint32(tag)
}

// rpcTagBits is the width of the caller tag inside the reply index.
const rpcTagBits = 4

// rpcIdent finds a call's trace id. Arguments carry the caller tag in fix
// and the sequence number in wp, the reply packs both into index. Call
// and return frames expose only the function name, so the sequence is the
// caller's current one: each caller has one call in flight.
type rpcIdent struct {
	flows map[string]uint32
	cur   [1 << rpcTagBits]atomic.Uint32
}

func (ri *rpcIdent) value(t *presentation.Type, v any) (traceID, bool) {
	m, _ := v.(map[string]any)
	if t == rpcRetType {
		index, ok := m["index"].(uint32)
		if !ok {
			return traceID{}, false
		}
		return traceID{flow: index&(1<<rpcTagBits-1) + 1, seq: index >> rpcTagBits}, true
	}
	tag, ok1 := m["fix"].(uint8)
	wp, ok2 := m["wp"].(uint32)
	if !ok1 || !ok2 || int(tag) >= len(ri.cur) {
		return traceID{}, false
	}
	ri.cur[tag].Store(wp)
	return traceID{flow: uint32(tag) + 1, seq: wp}, false
}

func (ri *rpcIdent) frame(f *protocol.Frame) (traceID, bool) {
	if f.Type != protocol.MTCall && f.Type != protocol.MTReturn {
		return traceID{}, false
	}
	flow := ri.flows[f.Channel]
	if flow == 0 {
		return traceID{}, false
	}
	return traceID{flow: flow, seq: ri.cur[flow-1].Load()}, f.Type == protocol.MTReturn
}

// rpcCall is rpc_closed (§4.3): nproc callers on one node, each issuing
// its next call to a function on the other node when the previous one
// returned. Each caller has its own function name, as separate client
// services would.
type rpcCall struct {
	*harness
	client *core.Node
	names  []string
	pools  []valuePool
	seq    []uint32
}

func buildRPC(seed int64, tr *tracer) (_ instance, err error) {
	rng := rand.New(rand.NewSource(seed))
	w := &rpcCall{harness: newHarness(tr)}
	defer w.closeOnError(&err)
	ident := &rpcIdent{flows: make(map[string]uint32)}
	if tr != nil {
		tr.ident = ident
	}
	bus := transport.NewBus()
	if w.client, err = w.addBusNode(bus, "mission"); err != nil {
		return nil, err
	}
	server, err := w.addBusNode(bus, "navigator")
	if err != nil {
		return nil, err
	}
	handler := func(args any) (any, error) {
		t0 := w.tr.start()
		m, _ := args.(map[string]any)
		ok, index := rpcExpected(m)
		ret := map[string]any{"ok": ok, "index": index}
		w.tr.finishCallback(t0, traceID{flow: index&(1<<rpcTagBits-1) + 1, seq: index >> rpcTagBits})
		return ret, nil
	}
	// One caller per CPU; the tag field has room for 16.
	for c := 0; c < min(procs(), 1<<rpcTagBits); c++ {
		name := topicName("nav.resolve", c)
		if err := server.RPC().Register(name, "bench", services.TypePosition, rpcRetType, qos.CallQoS{}, handler); err != nil {
			return nil, err
		}
		ident.flows[name] = uint32(c) + 1
		w.names = append(w.names, name)
		w.pools = append(w.pools, positionPool(rng, uint8(c)))
	}
	w.seq = make([]uint32, len(w.names))
	server.AnnounceNow()
	if err := w.discovered(); err != nil {
		return nil, fmt.Errorf("rpc_closed: %w", err)
	}

	// First correct op: retry until discovery has carried the offer over.
	if err := waitFor("first call", 5*time.Second, func() bool { return w.call(0, false) }); err != nil {
		return nil, fmt.Errorf("rpc_closed: %w", err)
	}
	return w, nil
}

// call issues caller c's next invocation and verifies the reply. Set-up
// probes (count=false) are not ops until one succeeds.
func (w *rpcCall) call(c int, count bool) bool {
	w.seq[c]++
	seq := w.seq[c]
	args := w.pools[c].send[int(seq)%poolSize]
	args["wp"] = seq
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	t0 := time.Now()
	sp := w.tr.start()
	ret, err := w.client.RPC().Call(ctx, w.names[c], args, services.TypePosition, rpcRetType, qos.CallQoS{})
	w.tr.finishCall(sp, traceID{flow: uint32(c) + 1, seq: seq})
	lat := time.Since(t0)
	cancel()
	reason := "return value is not the function of the arguments"
	if err != nil {
		reason = err.Error()
	} else {
		m, _ := ret.(map[string]any)
		wantOK, wantIndex := rpcExpected(args)
		if len(m) == 2 && m["ok"] == wantOK && m["index"] == wantIndex {
			reason = ""
		}
	}
	if !count && reason != "" {
		return false
	}
	w.attempted.Add(1)
	if reason != "" {
		w.fail(reason)
		return false
	}
	w.good(lat)
	return true
}

func (w *rpcCall) run() {
	for c := range w.names {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			for {
				select {
				case <-w.stopCh:
					return
				default:
					if !w.call(c, true) {
						// A failing provider must not turn the closed
						// loop into a spin.
						sleepStop(time.Millisecond, w.stopCh)
					}
				}
			}
		}()
	}
}

func (w *rpcCall) stop() { w.stopGenerators() }
