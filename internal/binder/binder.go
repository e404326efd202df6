// Package binder models Android's Binder inter-process communication
// mechanism at the level AnDrone modifies it: nodes referenced by
// per-process integer handles, one Context Manager per device namespace
// (reachable as handle 0), synchronous transactions that carry the calling
// process' PID, EUID, and — AnDrone's addition — container identifier, and
// the two new ioctls the paper introduces:
//
//   - PUBLISH_TO_ALL_NS: callable only by the device container, registers a
//     device-container service with the Context Manager of every other
//     namespace (present and future);
//   - PUBLISH_TO_DEV_CON: registers a container's ActivityManager with the
//     device container's Context Manager under a name suffixed with the
//     container identifier, so device services can route permission checks
//     back to the calling container.
//
// Binder inherently provides isolation: no communication can occur without
// first obtaining a handle, and handles can only be obtained from the
// Context Manager (handle 0) or passed in a transaction by someone who
// already holds one. The device-namespace extension scopes handle 0 per
// container, so each virtual drone sees only its own ServiceManager.
//
// Concurrency model (see DESIGN.md "Fleet scaling & hot-path concurrency"):
// the read-mostly structures a transaction touches — the namespace table,
// each namespace's context manager, and each process' handle table — are
// copy-on-write snapshots behind atomic.Pointer. The data-only Transact
// fast path takes no lock at all; every mutation (namespace churn, handle
// installation, process exit) still serializes on Driver.mu and publishes a
// fresh snapshot, so readers observe either the old table or the new one,
// never a half-built map.
package binder

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"androne/internal/telemetry"
)

// Handle is a per-process reference to a node. Handle 0 always refers to the
// Context Manager of the process' namespace.
type Handle uint32

// ContextManagerHandle is the well-known handle of the namespace's Context
// Manager.
const ContextManagerHandle Handle = 0

// MaxTransactionBytes is the Binder transaction buffer limit (1 MB per
// process in Android, minus bookkeeping). Oversized payloads fail with
// ErrTooLarge, as TransactionTooLargeException does.
const MaxTransactionBytes = 1 << 20

// Context Manager protocol transaction codes. These mirror Android's
// servicemanager protocol; the driver itself speaks AddService when
// executing PUBLISH_TO_ALL_NS, so the codes are defined here rather than in
// the userspace layer.
const (
	CodeAddService uint32 = iota + 1
	CodeGetService
	CodeCheckService
	CodeListServices
	// CodePing is a liveness probe any node should answer.
	CodePing
	// CodeUser is the first code available to user-defined services.
	CodeUser uint32 = 64
)

// Errors returned by driver operations.
var (
	ErrDeadNode         = errors.New("binder: node owner has exited")
	ErrBadHandle        = errors.New("binder: bad handle")
	ErrNoContextManager = errors.New("binder: namespace has no context manager")
	ErrAlreadyManager   = errors.New("binder: namespace already has a context manager")
	ErrPermission       = errors.New("binder: permission denied")
	ErrDeadProc         = errors.New("binder: process has exited")
	ErrTooLarge         = errors.New("binder: transaction exceeds buffer size")
)

// Sender identifies the originator of a transaction. Container is AnDrone's
// addition to the transaction data structure.
type Sender struct {
	PID       int
	EUID      int
	Container string
}

// Txn is a transaction delivered to a node's handler. Objects passed by the
// sender appear as handles valid in the receiving process.
type Txn struct {
	Code    uint32
	Data    []byte
	Objects []Handle
	Sender  Sender
}

// Reply is the synchronous result of a transaction. Objects are node
// references that the driver translates into handles in the caller's
// process.
type Reply struct {
	Data    []byte
	Objects []*Node
}

// Handler services transactions sent to a node. It runs in the context of
// the node's owning process: object handles in the Txn are valid there.
type Handler func(txn Txn) (Reply, error)

// Node is a Binder object: a service endpoint owned by a process. All
// fields are set at construction and never written again, which is what
// lets the lock-free transaction path read them without synchronization.
type Node struct {
	id    uint64
	name  string // debug label
	owner *Proc
	h     Handler
}

// Name returns the node's debug label.
func (n *Node) Name() string { return n.name }

// Namespace is a Binder device namespace. Each container gets one, so each
// container has its own Context Manager and service registry.
type Namespace struct {
	driver *Driver
	name   string
	key    telemetry.Key // interned name, cached for zero-cost emission
	// mgr is the context manager node. Handle-0 resolution on the
	// transaction fast path loads it with no lock; BecomeContextManager
	// stores it under driver.mu.
	mgr atomic.Pointer[Node]
	// procs are the live processes attached here, in attach order; guarded
	// by driver.mu. RemoveNamespace kills them.
	procs []*Proc
}

// Name returns the namespace (container) identifier.
func (ns *Namespace) Name() string { return ns.name }

// Proc is a process attached to the Binder driver within a namespace.
// pid, euid, ns, and driver are immutable after Attach.
type Proc struct {
	driver *Driver
	ns     *Namespace
	pid    int
	euid   int
	dead   atomic.Bool
	next   Handle // next free handle; guarded by driver.mu (mutation side only)
	// handles is the copy-on-write snapshot of the handle table: the
	// transaction fast path loads and indexes it with no lock; mutations
	// clone the map, add the entry, and swap the pointer under driver.mu.
	handles atomic.Pointer[map[Handle]*Node]
}

// PID returns the process id.
func (p *Proc) PID() int { return p.pid }

// EUID returns the effective uid.
func (p *Proc) EUID() int { return p.euid }

// Namespace returns the namespace the process is attached in.
func (p *Proc) Namespace() *Namespace { return p.ns }

// Driver is the Binder "kernel driver": the authority on namespaces, nodes,
// handle tables, and the AnDrone publish ioctls.
type Driver struct {
	mu       sync.Mutex
	nextNode uint64
	nextPID  int
	// namespaces is the copy-on-write snapshot of name → namespace.
	// Lookups load and index it with no lock; CreateNamespace and
	// RemoveNamespace clone-then-swap under d.mu.
	namespaces atomic.Pointer[map[string]*Namespace]
	devcon     *Namespace // the device container's namespace, if designated
	// published records PUBLISH_TO_ALL_NS registrations so they can be
	// replayed into namespaces created later ("the same process will be
	// performed in the future for any newly created virtual drone
	// containers").
	published []publishedService
	// deathLinks maps a node's owner to the death-notification callbacks
	// registered against that node (Binder's link-to-death).
	deathLinks map[*Proc][]deathLink
	// tel is the drone's flight recorder; nil when running without one.
	// Set before use (SetRecorder), never written afterwards.
	tel *telemetry.Recorder
	// txns shards mTransactions across cache-line-padded atomic cells.
	// Transact is the hot ioctl and takes no lock, so a LocalCount (which
	// needs an owning mutex) cannot count it; the sharded cells keep
	// parallel callers off each other's cache lines. FlushMetrics folds
	// the batch in.
	txns *telemetry.ShardedCount
}

type deathLink struct {
	node    *Node
	watcher *Proc // the process that registered the link
	fn      func()
}

type publishedService struct {
	name string
	node *Node
}

// NewDriver creates an empty Binder driver.
func NewDriver() *Driver {
	d := &Driver{
		nextPID:    100,
		deathLinks: make(map[*Proc][]deathLink),
		txns:       mTransactions.Sharded(),
	}
	empty := make(map[string]*Namespace)
	d.namespaces.Store(&empty)
	return d
}

// CreateNamespace creates a device namespace for a container. Services
// previously published with PUBLISH_TO_ALL_NS are delivered to the new
// namespace's context manager as soon as one registers.
func (d *Driver) CreateNamespace(name string) (*Namespace, error) {
	key := telemetry.K(name) // intern outside d.mu: K takes its own lock
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := *d.namespaces.Load()
	if _, ok := cur[name]; ok {
		return nil, fmt.Errorf("binder: namespace %q already exists", name)
	}
	ns := &Namespace{driver: d, name: name, key: key}
	next := make(map[string]*Namespace, len(cur)+1)
	for k, v := range cur { //vet:allow detguard copy-on-write map clone; order-independent
		next[k] = v
	}
	next[name] = ns
	d.namespaces.Store(&next)
	return ns, nil
}

// RemoveNamespace tears down a container's namespace. Its processes exit:
// all nodes they own become dead and death notifications registered
// against those nodes fire, as on Exit. The driver also forgets what the
// rest of the system held of the namespace — death links its processes
// registered, and handles other processes hold to its nodes — so a
// namespace's lifetime leaves nothing behind.
func (d *Driver) RemoveNamespace(name string) {
	d.mu.Lock()
	cur := *d.namespaces.Load()
	ns, ok := cur[name]
	if !ok {
		d.mu.Unlock()
		return
	}
	next := make(map[string]*Namespace, len(cur))
	for k, v := range cur { //vet:allow detguard copy-on-write map clone; order-independent
		if k != name {
			next[k] = v
		}
	}
	d.namespaces.Store(&next)

	// Kill the processes, collecting the notifications to fire in attach
	// then registration order; links from inside the namespace have no
	// one left to notify.
	var fire []func()
	for _, p := range ns.procs {
		p.dead.Store(true)
		empty := make(map[Handle]*Node)
		p.handles.Store(&empty)
		for _, l := range d.deathLinks[p] {
			if l.watcher.ns != ns {
				fire = append(fire, l.fn)
			}
		}
		delete(d.deathLinks, p)
	}
	ns.procs = nil
	// Drop the links the namespace's processes registered on others.
	for owner, links := range d.deathLinks { //vet:allow detguard per-owner filter; each key is rewritten independently
		kept := links[:0]
		for _, l := range links {
			if l.watcher.ns != ns {
				kept = append(kept, l)
			}
		}
		clear(links[len(kept):])
		if len(kept) == 0 {
			delete(d.deathLinks, owner)
		} else {
			d.deathLinks[owner] = kept
		}
	}
	// Drop other processes' handles to the namespace's nodes. Handles are
	// never reused, so a stale one stays invalid (ErrBadHandle).
	for _, other := range next { //vet:allow detguard per-process table rewrite; order-independent
		for _, p := range other.procs {
			p.dropHandlesLocked(ns)
		}
	}
	d.mu.Unlock()
	for _, fn := range fire {
		fn()
	}
}

// DeathLinks returns how many death notifications are registered across
// the driver. Namespace churn must not grow it.
func (d *Driver) DeathLinks() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, links := range d.deathLinks {
		n += len(links)
	}
	return n
}

// Handles returns the number of entries in p's handle table, not counting
// the context manager's handle 0.
func (p *Proc) Handles() int { return len(*p.handles.Load()) }

// dropHandlesLocked removes p's handles to nodes owned in ns, publishing a
// new snapshot only when there are any. Caller holds d.mu.
func (p *Proc) dropHandlesLocked(ns *Namespace) {
	cur := *p.handles.Load()
	stale := 0
	for _, n := range cur { //vet:allow detguard counting scan; order-independent
		if n.ownedIn(ns) {
			stale++
		}
	}
	if stale == 0 {
		return
	}
	next := make(map[Handle]*Node, len(cur)-stale)
	for h, n := range cur { //vet:allow detguard copy-on-write map clone; order-independent
		if !n.ownedIn(ns) {
			next[h] = n
		}
	}
	p.handles.Store(&next)
}

// SetDeviceNamespace designates ns as the device container's namespace,
// granting it the right to call PUBLISH_TO_ALL_NS.
func (d *Driver) SetDeviceNamespace(ns *Namespace) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.devcon = ns
}

// Namespaces returns the names of all current namespaces. Lock-free: it
// reads the current snapshot.
func (d *Driver) Namespaces() []string {
	cur := *d.namespaces.Load()
	out := make([]string, 0, len(cur))
	for name := range cur {
		out = append(out, name)
	}
	return out
}

// LookupNamespace returns the namespace registered under name. Lock-free:
// fleet assemblies resolve their containers' namespaces on hot paths
// without touching d.mu.
func (d *Driver) LookupNamespace(name string) (*Namespace, bool) {
	ns, ok := (*d.namespaces.Load())[name]
	return ns, ok
}

// Attach creates a process in the namespace with the given effective uid,
// assigning it a fresh PID.
func (ns *Namespace) Attach(euid int) *Proc {
	d := ns.driver
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextPID++
	p := &Proc{
		driver: d,
		ns:     ns,
		pid:    d.nextPID,
		euid:   euid,
		next:   1, // handle 0 is reserved for the context manager
	}
	empty := make(map[Handle]*Node)
	p.handles.Store(&empty)
	ns.procs = append(ns.procs, p)
	return p
}

// NewNode creates a Binder node owned by p with the given handler. The node
// is not reachable by anyone until a handle to it is passed in a transaction
// or it is registered with a context manager.
func (p *Proc) NewNode(name string, h Handler) *Node {
	d := p.driver
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextNode++
	return &Node{id: d.nextNode, name: name, owner: p, h: h}
}

// BecomeContextManager registers node as the Context Manager for p's
// namespace. Binder allows only one Context Manager per namespace; the
// driver identifies the container from which the registration comes, so
// subsequent references to handle 0 within that container resolve here.
func (p *Proc) BecomeContextManager(node *Node) error {
	d := p.driver
	d.mu.Lock()
	if p.dead.Load() {
		d.mu.Unlock()
		return ErrDeadProc
	}
	if node.owner != p {
		d.mu.Unlock()
		return fmt.Errorf("%w: context manager node must be owned by caller", ErrPermission)
	}
	if mgr := p.ns.mgr.Load(); mgr != nil && !mgr.dead() {
		d.mu.Unlock()
		return ErrAlreadyManager
	}
	p.ns.mgr.Store(node)
	// Replay prior PUBLISH_TO_ALL_NS registrations into this new manager,
	// unless this namespace is the device container itself.
	var replay []publishedService
	if p.ns != d.devcon {
		replay = append(replay, d.published...)
	}
	d.mu.Unlock()
	for _, svc := range replay {
		// Registration failures for individual services must not prevent the
		// manager from coming up; the driver keeps going, as a kernel would.
		_, _ = d.deliver(kernelSender(), node, CodeAddService, []byte(svc.name), []*Node{svc.node})
	}
	return nil
}

func (n *Node) dead() bool { return n.owner == nil || n.owner.dead.Load() }

func (n *Node) ownedIn(ns *Namespace) bool { return n.owner != nil && n.owner.ns == ns }

// Exit detaches the process: all its nodes become dead, its handles are
// released, and death notifications registered against its nodes fire.
func (p *Proc) Exit() {
	d := p.driver
	d.mu.Lock()
	if p.dead.Load() {
		d.mu.Unlock()
		return
	}
	p.dead.Store(true)
	empty := make(map[Handle]*Node)
	p.handles.Store(&empty)
	if i := slices.Index(p.ns.procs, p); i >= 0 {
		p.ns.procs = slices.Delete(p.ns.procs, i, i+1)
	}
	links := d.deathLinks[p]
	delete(d.deathLinks, p)
	d.mu.Unlock()
	for _, l := range links {
		l.fn()
	}
}

// LinkToDeath registers a callback that fires when the owner of the node
// behind h exits — Binder's death notification mechanism, which the
// ServiceManager uses to drop registrations of crashed services.
func (p *Proc) LinkToDeath(h Handle, fn func()) error {
	d := p.driver
	d.mu.Lock()
	node, err := p.resolve(h)
	if err != nil {
		d.mu.Unlock()
		return err
	}
	d.deathLinks[node.owner] = append(d.deathLinks[node.owner], deathLink{node: node, watcher: p, fn: fn})
	d.mu.Unlock()
	return nil
}

// resolve maps a handle to a node. Lock-free: it reads the dead flag, the
// namespace's manager pointer, and the handle-table snapshot, all of which
// are published atomically by the mutation paths. A resolution racing a
// mutation observes either the old table or the new one — exactly the
// serialization a locked lookup would have produced on one side of the
// mutation or the other.
func (p *Proc) resolve(h Handle) (*Node, error) {
	if p.dead.Load() {
		return nil, ErrDeadProc
	}
	if h == ContextManagerHandle {
		mgr := p.ns.mgr.Load()
		if mgr == nil || mgr.dead() {
			return nil, ErrNoContextManager
		}
		return mgr, nil
	}
	n, ok := (*p.handles.Load())[h]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadHandle, h) //vet:allow hotpath cold error path (oversized transaction)
	}
	if n.dead() {
		return nil, ErrDeadNode
	}
	return n, nil
}

// installLocked adds a node to the process' handle table, returning the
// handle. Caller holds d.mu. The table is never mutated in place: the
// snapshot readers hold must stay frozen, so installation clones the map,
// adds the entry, and publishes the clone.
func (p *Proc) installLocked(n *Node) Handle {
	cur := *p.handles.Load()
	for h, existing := range cur { //vet:allow detguard identity scan; a node appears at most once
		if existing == n {
			return h
		}
	}
	h := p.next
	p.next++
	next := make(map[Handle]*Node, len(cur)+1) //vet:allow hotpath object-transfer slow path; serializes on d.mu by contract
	for k, v := range cur {                    //vet:allow detguard copy-on-write map clone; order-independent
		next[k] = v
	}
	next[h] = n
	p.handles.Store(&next)
	return h
}

// NodeFor returns the node a handle refers to, for passing a received
// service reference onward in a Reply.
func (p *Proc) NodeFor(h Handle) (*Node, error) {
	return p.resolve(h)
}

// Transact sends a synchronous transaction to the node referenced by h,
// passing any local nodes as objects. The reply's object references are
// installed in p's handle table and returned as handles.
//
// The data-only round trip — no objects sent, none returned — is entirely
// lock-free: handle resolution reads copy-on-write snapshots, the sender
// identity is built from immutable Proc fields, the target's handler is
// immutable after NewNode, and the transaction counter is sharded across
// padded atomic cells. Parallel callers in different processes never touch
// Driver.mu (measured by androne-bench -exp scale). Object transfer still
// serializes on d.mu because it grows a handle table.
//
//vet:hotpath data-only transact is the fleet's de-contended fast path
func (p *Proc) Transact(h Handle, code uint32, data []byte, objects []*Node) ([]byte, []Handle, error) {
	d := p.driver
	if len(data) > MaxTransactionBytes {
		mTransactions.Inc() // cold error path: direct atomic is fine
		mTransactErrors.Inc()
		d.tel.Emit(p.ns.key, kTxnError, int64(code), int64(len(data)), "too-large")
		return nil, nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(data)) //vet:allow hotpath cold error path (bad handle)
	}
	d.txns.Inc(p.pid) // sharded by PID; FlushMetrics folds the batch in
	target, err := p.resolve(h)
	if err != nil {
		mTransactErrors.Inc()
		d.tel.Emit(p.ns.key, kTxnError, int64(code), int64(h), "resolve")
		return nil, nil, err
	}
	sender := Sender{PID: p.pid, EUID: p.euid, Container: p.ns.name}

	reply, err := d.deliver(sender, target, code, data, objects)
	if err != nil {
		mTransactErrors.Inc()
		d.tel.Emit(p.ns.key, kTxnError, int64(code), 0, "deliver")
		return nil, nil, err
	}

	if len(reply.Objects) == 0 {
		// Data-only reply: nothing to install, stay off the lock.
		if p.dead.Load() {
			return nil, nil, ErrDeadProc
		}
		return reply.Data, nil, nil
	}
	d.mu.Lock() //vet:allow hotpath object replies serialize on d.mu by contract
	defer d.mu.Unlock()
	if p.dead.Load() {
		return nil, nil, ErrDeadProc
	}
	handles := make([]Handle, len(reply.Objects)) //vet:allow hotpath object-transfer slow path; serializes on d.mu by contract
	for i, n := range reply.Objects {
		handles[i] = p.installLocked(n)
	}
	return reply.Data, handles, nil
}

// deliver hands a transaction to the target's handler, translating object
// nodes into handles in the target's process. The data-only case takes no
// lock (liveness is an atomic read and the handler is immutable); passing
// objects grows the owner's handle table and therefore serializes on d.mu.
func (d *Driver) deliver(sender Sender, target *Node, code uint32, data []byte, objects []*Node) (Reply, error) {
	var objHandles []Handle
	if len(objects) > 0 {
		owner := target.owner
		d.mu.Lock() //vet:allow hotpath object transfer serializes on d.mu by contract
		if target.dead() {
			d.mu.Unlock()
			return Reply{}, ErrDeadNode
		}
		objHandles = make([]Handle, len(objects)) //vet:allow hotpath object-transfer slow path; serializes on d.mu by contract
		for i, n := range objects {
			objHandles[i] = owner.installLocked(n)
		}
		d.mu.Unlock()
	} else if target.dead() {
		return Reply{}, ErrDeadNode
	}
	h := target.h
	if h == nil {
		return Reply{}, fmt.Errorf("binder: node %q has no handler", target.name) //vet:allow hotpath cold error path (node without handler)
	}
	return h(Txn{Code: code, Data: data, Objects: objHandles, Sender: sender})
}

func kernelSender() Sender { return Sender{PID: 0, EUID: 0, Container: "<kernel>"} }

// PublishToAllNS implements the PUBLISH_TO_ALL_NS ioctl: it takes a service
// name and a handle valid in p, and registers that service with the Context
// Manager of every other namespace by making the driver's own AddService
// registration call. Callable only from the device container's namespace,
// for security. The registration is recorded so namespaces created later
// receive it too.
func (p *Proc) PublishToAllNS(name string, h Handle) error {
	d := p.driver
	d.mu.Lock()
	if d.devcon == nil || p.ns != d.devcon {
		d.mu.Unlock()
		return fmt.Errorf("%w: PUBLISH_TO_ALL_NS is restricted to the device container", ErrPermission)
	}
	node, err := p.resolve(h)
	if err != nil {
		d.mu.Unlock()
		return err
	}
	d.published = append(d.published, publishedService{name: name, node: node})
	// Snapshot the managers to call outside the lock, in namespace-name
	// order: each AddService delivery can emit trace events, so the fan-out
	// sequence must not follow map iteration order.
	var managers []*Node
	for _, ns := range *d.namespaces.Load() {
		if ns == d.devcon {
			continue
		}
		// The presence of a ServiceManager indicates the container is a
		// virtual drone running Android Things.
		if mgr := ns.mgr.Load(); mgr != nil && !mgr.dead() {
			managers = append(managers, mgr)
		}
	}
	d.mu.Unlock()
	sort.Slice(managers, func(i, j int) bool {
		return managers[i].owner.ns.name < managers[j].owner.ns.name
	})
	for _, mgr := range managers {
		if _, err := d.deliver(kernelSender(), mgr, CodeAddService, []byte(name), []*Node{node}); err != nil {
			return fmt.Errorf("binder: publishing %q to %q: %w", name, mgr.owner.ns.name, err)
		}
	}
	mPublishes.Inc()
	d.tel.Emit(0, kPublishAllNS, int64(len(managers)), 0, name)
	return nil
}

// PublishToDevCon implements the PUBLISH_TO_DEV_CON ioctl: it registers the
// node (a container's ActivityManager) with the device container's Context
// Manager under "<name>:<container>", so device services can locate the
// calling container's ActivityManager for permission checks.
func (p *Proc) PublishToDevCon(name string, h Handle) error {
	d := p.driver
	d.mu.Lock()
	if d.devcon == nil {
		d.mu.Unlock()
		return fmt.Errorf("%w: no device container designated", ErrNoContextManager)
	}
	if p.ns == d.devcon {
		d.mu.Unlock()
		return fmt.Errorf("%w: device container cannot publish to itself", ErrPermission)
	}
	node, err := p.resolve(h)
	if err != nil {
		d.mu.Unlock()
		return err
	}
	mgr := d.devcon.mgr.Load()
	if mgr == nil || mgr.dead() {
		d.mu.Unlock()
		return ErrNoContextManager
	}
	scoped := ScopedName(name, p.ns.name)
	d.mu.Unlock()
	_, err = d.deliver(kernelSender(), mgr, CodeAddService, []byte(scoped), []*Node{node})
	if err == nil {
		mPublishes.Inc()
		d.tel.Emit(p.ns.key, kPublishDevCon, 0, 0, scoped)
	}
	return err
}

// ScopedName is the naming convention PUBLISH_TO_DEV_CON uses: the service
// name appended with the container identifier.
func ScopedName(service, container string) string {
	return service + ":" + container
}
