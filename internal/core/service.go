package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"
	"uavmw/internal/clock"

	"uavmw/internal/events"
	"uavmw/internal/filetransfer"
	"uavmw/internal/presentation"
	"uavmw/internal/qos"
	"uavmw/internal/rpc"
	"uavmw/internal/transport"
	"uavmw/internal/uerr"
	"uavmw/internal/variables"
)

// codeServicePanic types a panicking service handler: panic containment
// marks the service failed (§3 "watching for their correct operation")
// and the failure lands in the node registry like any other.
var codeServicePanic = uerr.Register("service.handler_panic", uerr.CatResource)

// Service is the unit of business logic the container manages (§3 "the
// container is the responsible of starting and stopping the services it
// contains ... watching for their correct operation").
type Service interface {
	// Name identifies the service within the node and in announcements.
	Name() string
	// Init registers the service's resources (variables, events,
	// functions, files) and verifies its dependencies. The container
	// calls it once, before any service starts.
	Init(ctx *Context) error
	// Start begins operation; it must not block (long work belongs in
	// goroutines the service stops in Stop, or in handler callbacks).
	Start(ctx *Context) error
	// Stop halts operation and releases service-owned goroutines.
	Stop(ctx *Context) error
}

// Manifest declares a service's resource needs for admission control (§3
// resource management). The zero value requests nothing.
type Manifest struct {
	// MemoryKB is the service's declared memory budget.
	MemoryKB int
	// CPUShare is the declared CPU fraction in [0,1].
	CPUShare float64
	// Devices are input/output devices needed in exclusive mode.
	Devices []string
}

// Resourced is optionally implemented by services that declare resources.
type Resourced interface {
	Manifest() Manifest
}

// ResourceBudget caps the sum of admitted manifests on a node. Zero fields
// are unlimited.
type ResourceBudget struct {
	MemoryKB int
	CPUShare float64
}

// ServiceState is the lifecycle position of a managed service.
type ServiceState uint8

// Lifecycle states.
const (
	ServiceRegistered ServiceState = iota + 1
	ServiceInitialized
	ServiceRunning
	ServiceStopped
	ServiceFailed
)

// String implements fmt.Stringer.
func (s ServiceState) String() string {
	switch s {
	case ServiceRegistered:
		return "registered"
	case ServiceInitialized:
		return "initialized"
	case ServiceRunning:
		return "running"
	case ServiceStopped:
		return "stopped"
	case ServiceFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Errors.
var (
	// ErrDuplicateService reports two services with one name.
	ErrDuplicateService = errors.New("duplicate service name")
	// ErrAdmission reports a manifest the node budget cannot fit.
	ErrAdmission = errors.New("resource admission denied")
	// ErrDeviceBusy reports an exclusive device already held.
	ErrDeviceBusy = errors.New("device held by another service")
	// ErrBadState reports a lifecycle operation from the wrong state.
	ErrBadState = errors.New("invalid service state")
)

// ServiceRuntime is the container's handle on one managed service.
type ServiceRuntime struct {
	node *Node
	svc  Service
	ctx  *Context

	mu    sync.Mutex
	state ServiceState
	err   error
}

// State returns the current lifecycle state.
func (rt *ServiceRuntime) State() ServiceState {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.state
}

// Err returns the failure cause for ServiceFailed.
func (rt *ServiceRuntime) Err() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.err
}

// Name returns the service name.
func (rt *ServiceRuntime) Name() string { return rt.svc.Name() }

func (rt *ServiceRuntime) setState(s ServiceState, err error) {
	rt.mu.Lock()
	rt.state = s
	if err != nil {
		rt.err = err
	}
	rt.mu.Unlock()
}

// AddService admits and registers a service. Admission checks the combined
// declared resources against the node budget and acquires exclusive
// devices.
func (n *Node) AddService(svc Service) (*ServiceRuntime, error) {
	name := svc.Name()
	if name == "" {
		return nil, fmt.Errorf("core: unnamed service: %w", ErrBadState)
	}
	var m Manifest
	if r, ok := svc.(Resourced); ok {
		m = r.Manifest()
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("core: %w", ErrNodeClosed)
	}
	if _, dup := n.services[name]; dup {
		return nil, fmt.Errorf("core: %q: %w", name, ErrDuplicateService)
	}
	// Admission control against the budget.
	if n.budget.MemoryKB > 0 || n.budget.CPUShare > 0 {
		memSum, cpuSum := m.MemoryKB, m.CPUShare
		for _, rt := range n.services {
			if r, ok := rt.svc.(Resourced); ok {
				mm := r.Manifest()
				memSum += mm.MemoryKB
				cpuSum += mm.CPUShare
			}
		}
		if n.budget.MemoryKB > 0 && memSum > n.budget.MemoryKB {
			return nil, fmt.Errorf("core: %q wants %dKB, budget %dKB: %w",
				name, m.MemoryKB, n.budget.MemoryKB, ErrAdmission)
		}
		if n.budget.CPUShare > 0 && cpuSum > n.budget.CPUShare {
			return nil, fmt.Errorf("core: %q wants %.2f cpu, budget %.2f: %w",
				name, m.CPUShare, n.budget.CPUShare, ErrAdmission)
		}
	}
	// Exclusive devices.
	for _, dev := range m.Devices {
		if holder, busy := n.devices[dev]; busy {
			return nil, fmt.Errorf("core: device %q held by %q: %w", dev, holder, ErrDeviceBusy)
		}
	}
	for _, dev := range m.Devices {
		n.devices[dev] = name
	}

	rt := &ServiceRuntime{node: n, svc: svc, state: ServiceRegistered}
	rt.ctx = &Context{node: n, service: name, runtime: rt}
	n.services[name] = rt
	n.startOrder = append(n.startOrder, name)
	return rt, nil
}

// StartServices initializes every registered service (in registration
// order), then starts them. The two-pass split lets every service publish
// its resources during Init before any dependency check or Start runs —
// the paper's "during middleware initialization, the services check that
// all the functions they need ... are provided" sequence.
func (n *Node) StartServices() error {
	n.mu.Lock()
	order := append([]string(nil), n.startOrder...)
	n.mu.Unlock()

	for _, name := range order {
		rt := n.service(name)
		if rt == nil || rt.State() != ServiceRegistered {
			continue
		}
		if err := rt.svc.Init(rt.ctx); err != nil {
			rt.setState(ServiceFailed, err)
			return fmt.Errorf("core: init %q: %w", name, err)
		}
		rt.setState(ServiceInitialized, nil)
	}
	// Push one synchronous full-state announcement after the Init pass:
	// resources registered during Init already announced incrementally,
	// but AnnounceNow also applies the whole offer (including the new
	// service records) to the local directory before any Start callback
	// runs, and gives peers one coalesced bulk push instead of relying on
	// the async delta flusher mid-boot.
	n.discovery.AnnounceNow()

	for _, name := range order {
		rt := n.service(name)
		if rt == nil || rt.State() != ServiceInitialized {
			continue
		}
		if err := rt.svc.Start(rt.ctx); err != nil {
			rt.setState(ServiceFailed, err)
			return fmt.Errorf("core: start %q: %w", name, err)
		}
		rt.setState(ServiceRunning, nil)
	}
	n.discovery.AnnounceNow()
	return nil
}

func (n *Node) service(name string) *ServiceRuntime {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.services[name]
}

// StopService stops one running service and withdraws its resources.
func (n *Node) StopService(name string) error {
	rt := n.service(name)
	if rt == nil {
		return fmt.Errorf("core: no service %q: %w", name, ErrBadState)
	}
	return n.stopRuntime(rt, nil)
}

func (n *Node) stopRuntime(rt *ServiceRuntime, cause error) error {
	state := rt.State()
	if state != ServiceRunning && state != ServiceInitialized && cause == nil {
		return fmt.Errorf("core: %q is %v: %w", rt.Name(), state, ErrBadState)
	}
	err := rt.svc.Stop(rt.ctx)
	rt.ctx.cleanupAll()
	n.releaseDevices(rt.Name())
	if cause != nil {
		rt.setState(ServiceFailed, cause)
	} else {
		rt.setState(ServiceStopped, err)
	}
	// Tell the fleet this node's offer changed (§3 status notification).
	n.OfferChanged()
	return err
}

func (n *Node) releaseDevices(service string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for dev, holder := range n.devices {
		if holder == service {
			delete(n.devices, dev)
		}
	}
}

// stopAllServices stops running services in reverse start order.
func (n *Node) stopAllServices() {
	n.mu.Lock()
	order := append([]string(nil), n.startOrder...)
	n.mu.Unlock()
	for i := len(order) - 1; i >= 0; i-- {
		rt := n.service(order[i])
		if rt != nil && (rt.State() == ServiceRunning || rt.State() == ServiceInitialized) {
			_ = n.stopRuntime(rt, nil)
		}
	}
}

// failService handles a malfunction report: the container stops the service
// and re-announces so peers clear their caches and fail over (§3, §4.3).
func (n *Node) failService(rt *ServiceRuntime, cause error) {
	log.Printf("uavmw[%s]: service %q failed: %v", n.id, rt.Name(), cause)
	_ = n.stopRuntime(rt, cause)
}

// Context is a service's gateway to the middleware primitives. All
// resources registered through a Context are owned by the service and
// withdrawn when it stops or fails.
type Context struct {
	node    *Node
	service string
	runtime *ServiceRuntime

	mu      sync.Mutex
	cleanup []func()
}

// Node returns the owning container.
func (c *Context) Node() *Node { return c.node }

// Clock returns the container's time source. Services pace their loops on
// it so a virtual-time container carries its services' timing with it.
func (c *Context) Clock() clock.Clock { return c.node.clk }

// ServiceName returns the owning service's name.
func (c *Context) ServiceName() string { return c.service }

func (c *Context) addCleanup(f func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cleanup = append(c.cleanup, f)
}

func (c *Context) cleanupAll() {
	c.mu.Lock()
	fns := c.cleanup
	c.cleanup = nil
	c.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// Fail reports a malfunction; the container stops the service and notifies
// the fleet.
func (c *Context) Fail(err error) {
	if c.runtime != nil {
		c.node.failService(c.runtime, err)
	}
}

// guard wraps a service handler with panic containment: a panicking handler
// marks the service failed instead of crashing the container (§3 "watching
// for their correct operation").
func (c *Context) guard(body func()) func() {
	return func() {
		defer func() {
			if r := recover(); r != nil {
				c.Fail(uerr.Newf(c.node.metrics, codeServicePanic, "%s: panic: %v", c.service, r))
			}
		}()
		body()
	}
}

// Logf writes a service-attributed log line.
func (c *Context) Logf(format string, args ...any) {
	log.Printf("uavmw[%s/%s]: %s", c.node.id, c.service, fmt.Sprintf(format, args...))
}

// --- variables (§4.1) ---

// OfferVariable registers a variable publisher owned by this service.
func (c *Context) OfferVariable(name string, t *presentation.Type, q qos.VariableQoS) (*variables.Publisher, error) {
	p, err := c.node.vars.Offer(name, c.service, t, q)
	if err != nil {
		return nil, err
	}
	c.addCleanup(p.Close)
	return p, nil
}

// SubscribeVariable attaches to a variable; OnSample/OnTimeout callbacks
// are panic-guarded.
func (c *Context) SubscribeVariable(name string, t *presentation.Type, opts variables.SubscribeOptions) (*variables.Subscription, error) {
	if opts.OnSample != nil {
		user := opts.OnSample
		opts.OnSample = func(v any, ts time.Time) { c.guard(func() { user(v, ts) })() }
	}
	if opts.OnTimeout != nil {
		user := opts.OnTimeout
		opts.OnTimeout = func(silence time.Duration) { c.guard(func() { user(silence) })() }
	}
	s, err := c.node.vars.Subscribe(name, t, opts)
	if err != nil {
		return nil, err
	}
	c.addCleanup(s.Close)
	return s, nil
}

// --- events (§4.2) ---

// OfferEvent registers an event publisher owned by this service.
func (c *Context) OfferEvent(topic string, t *presentation.Type, q qos.EventQoS) (*events.Publisher, error) {
	p, err := c.node.events.Offer(topic, c.service, t, q)
	if err != nil {
		return nil, err
	}
	c.addCleanup(p.Close)
	return p, nil
}

// SubscribeEvent attaches a panic-guarded handler to a topic.
func (c *Context) SubscribeEvent(topic string, t *presentation.Type, q qos.EventQoS, h events.Handler) (*events.Subscription, error) {
	guarded := func(v any, from transport.NodeID) { c.guard(func() { h(v, from) })() }
	s, err := c.node.events.Subscribe(topic, t, q, guarded)
	if err != nil {
		return nil, err
	}
	c.addCleanup(s.Close)
	return s, nil
}

// --- remote invocation (§4.3) ---

// RegisterFunction exposes a panic-guarded function owned by this service.
func (c *Context) RegisterFunction(name string, argType, retType *presentation.Type, q qos.CallQoS, h rpc.Handler) error {
	guarded := func(args any) (v any, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = uerr.Newf(c.node.metrics, codeServicePanic, "%s/%s: panic: %v", c.service, name, r)
			}
		}()
		return h(args)
	}
	if err := c.node.rpc.Register(name, c.service, argType, retType, q, guarded); err != nil {
		return err
	}
	c.addCleanup(func() { c.node.rpc.Unregister(name) })
	return nil
}

// Call invokes a remote (or local) function.
func (c *Context) Call(ctx context.Context, name string, args any, argType, retType *presentation.Type, q qos.CallQoS) (any, error) {
	return c.node.rpc.Call(ctx, name, args, argType, retType, q)
}

// RequireFunctions verifies this service's call dependencies (§4.3, E12).
func (c *Context) RequireFunctions(names ...string) error {
	return c.node.rpc.DependencyCheck(names...)
}

// --- file transmission (§4.4) ---

// OfferFile publishes a file resource owned by this service.
func (c *Context) OfferFile(name string, data []byte, q qos.TransferQoS) (*filetransfer.Offer, error) {
	o, err := c.node.files.Offer(name, c.service, data, q)
	if err != nil {
		return nil, err
	}
	c.addCleanup(o.Close)
	return o, nil
}

// FetchFile retrieves a file resource (local bypass when offered here).
func (c *Context) FetchFile(ctx context.Context, name string, opts filetransfer.FetchOptions) ([]byte, uint64, error) {
	return c.node.files.Fetch(ctx, name, opts)
}

// WatchFile delivers the resource on every revision change until ctx ends.
func (c *Context) WatchFile(ctx context.Context, name string, opts filetransfer.FetchOptions, cb func(data []byte, revision uint64)) error {
	return c.node.files.Watch(ctx, name, opts, cb)
}

// --- resource management (§3) ---

// AcquireDevice claims an exclusive device at runtime.
func (c *Context) AcquireDevice(device string) error {
	n := c.node
	n.mu.Lock()
	defer n.mu.Unlock()
	if holder, busy := n.devices[device]; busy {
		if holder == c.service {
			return nil
		}
		return fmt.Errorf("core: device %q held by %q: %w", device, holder, ErrDeviceBusy)
	}
	n.devices[device] = c.service
	return nil
}

// ReleaseDevice releases a held device.
func (c *Context) ReleaseDevice(device string) {
	n := c.node
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.devices[device] == c.service {
		delete(n.devices, device)
	}
}
