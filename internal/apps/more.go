package apps

import (
	"encoding/json"
	"fmt"
	"sync"

	"androne/internal/android"
	"androne/internal/core"
	"androne/internal/devcon"
	"androne/internal/geo"
	"androne/internal/mavlink"
	"androne/internal/sdk"
)

// --------------------------------------------------------------------------
// Photo app

// Photo is the simplest useful AnDrone app: at its waypoint it takes a
// handful of photos, marks them for the user, and completes. It is the
// quickstart example's workload.
type Photo struct {
	ctx    *core.AppContext
	client *android.Client

	mu     sync.Mutex
	active bool
	shots  int
	want   int
}

// PhotoArgs configures the photo app.
type PhotoArgs struct {
	Shots int `json:"shots"`
}

// NewPhoto is the AppFactory for the photo app.
func NewPhoto(ctx *core.AppContext) android.Lifecycle {
	p := &Photo{ctx: ctx, want: 3}
	var args PhotoArgs
	if len(ctx.Args) > 0 && json.Unmarshal(ctx.Args, &args) == nil && args.Shots > 0 {
		p.want = args.Shots
	}
	ctx.SDK.RegisterWaypointListener(sdk.ListenerFuncs{
		Active: func(geo.Waypoint) { p.setActive(true) },
		Inactive: func(geo.Waypoint) {
			p.setActive(false)
			// Best-effort from a void listener; VDC revocation is the backstop.
			_ = releaseDevice(p.client, devcon.SvcCamera) //vet:allow errflow voluntary release; VDC enforcement is the backstop
		},
	})
	return p
}

func (p *Photo) setActive(v bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.active = v
}

// Shots returns the number of photos taken.
func (p *Photo) Shots() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.shots
}

// Tick implements core.Ticker.
func (p *Photo) Tick(dt float64) {
	p.mu.Lock()
	if !p.active || p.shots >= p.want {
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()

	if p.client == nil {
		p.client = android.NewClient(p.ctx.VD.Instance.Namespace(), p.ctx.VD.UIDFor(PhotoPackage))
	}
	f, err := captureFrame(p.client)
	if err != nil {
		return
	}
	p.mu.Lock()
	p.shots++
	n := p.shots
	done := p.shots >= p.want
	p.mu.Unlock()

	path := fmt.Sprintf("/data/%s/photo-%d.raw", PhotoPackage, n)
	p.ctx.VD.Container.WriteFile(path, f.Pixels)
	_ = p.ctx.SDK.MarkFileForUser(path)
	if done {
		p.setActive(false)
		p.ctx.SDK.WaypointCompleted()
	}
}

// OnCreate implements android.Lifecycle.
func (p *Photo) OnCreate(app *android.App, saved []byte) {}

// OnSaveInstanceState implements android.Lifecycle.
func (p *Photo) OnSaveInstanceState(app *android.App) []byte { return nil }

// OnDestroy implements android.Lifecycle.
func (p *Photo) OnDestroy(app *android.App) {}

var _ core.Ticker = (*Photo)(nil)

// --------------------------------------------------------------------------
// Traffic watch app

// trafficLogPath is the file TrafficWatch appends its frame records to.
const trafficLogPath = "/data/" + TrafficWatchPackage + "/traffic.log"

// TrafficWatch exercises continuous device access: it films the ground
// between its waypoints (e.g. guided along a highway), honoring suspension
// when other parties' waypoints are visited.
type TrafficWatch struct {
	ctx    *core.AppContext
	client *android.Client

	mu        sync.Mutex
	suspended bool
	frames    int
	done      bool
}

// NewTrafficWatch is the AppFactory for the traffic watch app.
func NewTrafficWatch(ctx *core.AppContext) android.Lifecycle {
	t := &TrafficWatch{ctx: ctx}
	ctx.SDK.RegisterWaypointListener(sdk.ListenerFuncs{
		// At its own waypoints there is nothing special to do: complete
		// immediately so the planner moves on; the work happens in between.
		Active:  func(geo.Waypoint) { ctx.SDK.WaypointCompleted() },
		Suspend: func() { t.setSuspended(true) },
		Resume:  func() { t.setSuspended(false) },
	})
	return t
}

func (t *TrafficWatch) setSuspended(v bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.suspended = v
}

// Frames returns the number of frames captured en route.
func (t *TrafficWatch) Frames() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.frames
}

// Tick implements core.Ticker; the VDC runs it during transit for virtual
// drones with continuous access.
func (t *TrafficWatch) Tick(dt float64) {
	t.mu.Lock()
	if t.suspended {
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	if t.client == nil {
		t.client = android.NewClient(t.ctx.VD.Instance.Namespace(), t.ctx.VD.UIDFor(TrafficWatchPackage))
	}
	f, err := captureFrame(t.client)
	if err != nil {
		return // not entitled right now; policy says no
	}
	t.mu.Lock()
	t.frames++
	n := t.frames
	t.mu.Unlock()
	rec := fmt.Appendf(nil, "traffic frame %d at %.7f,%.7f\n", n, f.Position.Lat, f.Position.Lon)
	t.ctx.VD.Container.AppendFile(trafficLogPath, rec)
	if n == 1 { // marking reads the whole file; once per instance is enough
		_ = t.ctx.SDK.MarkFileForUser(trafficLogPath)
	}
}

// OnCreate implements android.Lifecycle.
func (t *TrafficWatch) OnCreate(app *android.App, saved []byte) {}

// OnSaveInstanceState implements android.Lifecycle.
func (t *TrafficWatch) OnSaveInstanceState(app *android.App) []byte { return nil }

// OnDestroy implements android.Lifecycle.
func (t *TrafficWatch) OnDestroy(app *android.App) {}

var _ core.Ticker = (*TrafficWatch)(nil)

// --------------------------------------------------------------------------
// Remote control app

// Command is one operator input relayed from the user's smartphone
// front-end.
type Command struct {
	// GotoNE moves relative to the waypoint center, in meters.
	GotoNorth, GotoEast float64
	Alt                 float64
	// Finish releases the waypoint.
	Finish bool
}

// RemoteControl provides interactive control of the drone during flight: a
// front-end (smartphone or browser) queues commands, and the app relays them
// to the virtual flight controller. It demonstrates both the online
// interactive usage model and geofence handling: out-of-fence commands are
// refused by the VFC.
type RemoteControl struct {
	ctx *core.AppContext

	mu       sync.Mutex
	active   bool
	waypoint geo.Waypoint
	queue    []Command
	rejected int
	executed int
}

// rcRegistry tracks RemoteControl instances by virtual drone name so
// front-ends (examples, tests) can inject operator commands.
var rcRegistry = struct {
	mu   sync.Mutex
	byVD map[string]*RemoteControl
	last *RemoteControl
}{byVD: make(map[string]*RemoteControl)}

// RemoteControlFor returns the RemoteControl app running in the named
// virtual drone, or nil.
func RemoteControlFor(vdName string) *RemoteControl {
	rcRegistry.mu.Lock()
	defer rcRegistry.mu.Unlock()
	return rcRegistry.byVD[vdName]
}

// LastRemoteControl returns the most recently created RemoteControl app.
func LastRemoteControl() *RemoteControl {
	rcRegistry.mu.Lock()
	defer rcRegistry.mu.Unlock()
	return rcRegistry.last
}

// NewRemoteControl is the AppFactory for the remote control app.
func NewRemoteControl(ctx *core.AppContext) android.Lifecycle {
	r := &RemoteControl{ctx: ctx}
	rcRegistry.mu.Lock()
	rcRegistry.byVD[ctx.VD.Name] = r
	rcRegistry.last = r
	rcRegistry.mu.Unlock()
	ctx.SDK.RegisterWaypointListener(sdk.ListenerFuncs{
		Active: func(wp geo.Waypoint) {
			r.mu.Lock()
			r.active = true
			r.waypoint = wp
			r.mu.Unlock()
		},
		Inactive: func(geo.Waypoint) {
			r.mu.Lock()
			r.active = false
			r.mu.Unlock()
		},
	})
	return r
}

// Queue adds an operator command (the smartphone front-end's path in).
func (r *RemoteControl) Queue(cmds ...Command) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queue = append(r.queue, cmds...)
}

// Stats reports executed and rejected command counts.
func (r *RemoteControl) Stats() (executed, rejected int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.executed, r.rejected
}

// Tick implements core.Ticker: relay one queued command per tick.
func (r *RemoteControl) Tick(dt float64) {
	r.mu.Lock()
	if !r.active || len(r.queue) == 0 {
		r.mu.Unlock()
		return
	}
	cmd := r.queue[0]
	r.queue = r.queue[1:]
	wp := r.waypoint
	r.mu.Unlock()

	if cmd.Finish {
		r.ctx.SDK.WaypointCompleted()
		return
	}
	alt := cmd.Alt
	if alt == 0 {
		alt = wp.Alt
	}
	target := geo.Position{LatLon: geo.OffsetNE(wp.LatLon, cmd.GotoNorth, cmd.GotoEast), Alt: alt}
	replies := r.ctx.VD.VFC.Send(&mavlink.SetPositionTargetGlobalInt{
		LatE7: mavlink.LatLonToE7(target.Lat), LonE7: mavlink.LatLonToE7(target.Lon),
		Alt: float32(target.Alt),
	})
	rejected := false
	for _, m := range replies {
		if ack, ok := m.(*mavlink.CommandAck); ok && ack.Result != mavlink.ResultAccepted {
			rejected = true
		}
	}
	r.mu.Lock()
	if rejected {
		r.rejected++
	} else {
		r.executed++
	}
	r.mu.Unlock()
}

// OnCreate implements android.Lifecycle.
func (r *RemoteControl) OnCreate(app *android.App, saved []byte) {}

// OnSaveInstanceState implements android.Lifecycle.
func (r *RemoteControl) OnSaveInstanceState(app *android.App) []byte { return nil }

// OnDestroy implements android.Lifecycle.
func (r *RemoteControl) OnDestroy(app *android.App) {}

var _ core.Ticker = (*RemoteControl)(nil)
