// Package apps provides reference AnDrone applications used by the examples,
// the integration tests, and the §6.6 multi-waypoint experiment: an
// autonomous aerial survey app, a snapshot app, a continuous traffic-watch
// app, and a remote-control app driven by queued operator commands. Each is
// an ordinary app built on the AnDrone SDK and the standard Android service
// path: frames come from the shared CameraService over Binder, flight
// control goes through the app's virtual flight controller via MAVLink.
package apps

import (
	"encoding/json"
	"fmt"
	"sync"

	"androne/internal/android"
	"androne/internal/core"
	"androne/internal/devcon"
	"androne/internal/devices"
	"androne/internal/geo"
	"androne/internal/mavlink"
	"androne/internal/sdk"
)

// Package names.
const (
	SurveyPackage        = "com.androne.survey"
	PhotoPackage         = "com.androne.photo"
	TrafficWatchPackage  = "com.androne.trafficwatch"
	RemoteControlPackage = "com.androne.remotecontrol"
)

// RegisterAll registers every reference app factory with a VDC.
func RegisterAll(vdc *core.VDC) {
	vdc.RegisterAppFactory(SurveyPackage, NewSurvey)
	vdc.RegisterAppFactory(PhotoPackage, NewPhoto)
	vdc.RegisterAppFactory(TrafficWatchPackage, NewTrafficWatch)
	vdc.RegisterAppFactory(RemoteControlPackage, NewRemoteControl)
}

// captureFrame grabs one camera frame through the shared CameraService.
func captureFrame(client *android.Client) (*devices.Frame, error) {
	h, err := client.GetService(devcon.SvcCamera)
	if err != nil {
		return nil, err
	}
	out, _, err := client.Call(h, devcon.CmdCapture, nil)
	if err != nil {
		return nil, err
	}
	var f devices.Frame
	if err := json.Unmarshal(out, &f); err != nil {
		return nil, err
	}
	return &f, nil
}

// vfcPosition extracts the drone position from VFC telemetry.
func vfcPosition(ctx *core.AppContext) (geo.Position, bool) {
	for _, m := range ctx.VD.VFC.Telemetry() {
		if gp, ok := m.(*mavlink.GlobalPositionInt); ok {
			return geo.Position{
				LatLon: geo.LatLon{Lat: mavlink.E7ToLatLon(gp.LatE7), Lon: mavlink.E7ToLatLon(gp.LonE7)},
				Alt:    float64(gp.RelativeAltMM) / 1000,
			}, true
		}
	}
	return geo.Position{}, false
}

// releaseDevice tells a device service the client is done with it — the
// voluntary release the AnDrone SDK contract expects on waypointInactive,
// without which the VDC terminates the process. A failure is returned, not
// swallowed: callers decide whether release is best-effort for them.
func releaseDevice(client *android.Client, service string) error {
	if client == nil {
		return nil
	}
	h, err := client.GetService(service)
	if err != nil {
		return nil // service unreachable: no lease to release
	}
	_, _, err = client.Call(h, devcon.CmdRelease, nil)
	return err
}

// gotoVFC sends a guided position target through the VFC.
func gotoVFC(ctx *core.AppContext, p geo.Position) bool {
	replies := ctx.VD.VFC.Send(&mavlink.SetPositionTargetGlobalInt{
		LatE7: mavlink.LatLonToE7(p.Lat), LonE7: mavlink.LatLonToE7(p.Lon),
		Alt: float32(p.Alt),
	})
	for _, r := range replies {
		if ack, ok := r.(*mavlink.CommandAck); ok && ack.Result != mavlink.ResultAccepted {
			return false
		}
	}
	return true
}

// --------------------------------------------------------------------------
// Survey app

// SurveyArgs are the user-supplied arguments from the portal: one polygon
// per waypoint, in waypoint order (the Figure 2 survey-areas).
type SurveyArgs struct {
	SurveyAreas [][][2]float64 `json:"survey-areas"`
	SpacingM    float64        `json:"spacing-m,omitempty"`
	// UseMission uploads the sweep as a MAVLink mission and flies it in
	// AUTO mode instead of chasing guided position targets — what DroneKit
	// survey apps do.
	UseMission bool `json:"use-mission,omitempty"`
}

// Survey is an autonomous aerial survey app: at each waypoint it flies a
// lawnmower sweep over its survey area, recording georeferenced frames, then
// marks its outputs for the user and completes the waypoint.
type Survey struct {
	ctx    *core.AppContext
	client *android.Client

	mu         sync.Mutex
	active     bool
	waypoint   geo.Waypoint
	areas      []geo.Polygon
	spacing    float64
	useMission bool
	missionUp  bool // mission uploaded and AUTO engaged for this waypoint
	path       []geo.Position
	pathIdx    int
	out        string // this waypoint's output file
	frames     int
	completed  int // waypoints completed (saved instance state)
}

// NewSurvey is the AppFactory for the survey app.
func NewSurvey(ctx *core.AppContext) android.Lifecycle {
	s := &Survey{ctx: ctx}
	var args SurveyArgs
	if len(ctx.Args) > 0 {
		_ = json.Unmarshal(ctx.Args, &args)
	}
	for _, poly := range args.SurveyAreas {
		var p geo.Polygon
		for _, v := range poly {
			p = append(p, geo.LatLon{Lat: v[0], Lon: v[1]})
		}
		s.areas = append(s.areas, p)
	}
	if args.SpacingM <= 0 {
		args.SpacingM = 15
	}
	s.spacing = args.SpacingM
	s.useMission = args.UseMission
	ctx.SDK.RegisterWaypointListener(sdk.ListenerFuncs{
		Active: s.onActive,
		Inactive: func(geo.Waypoint) {
			s.setActive(false)
			// Voluntarily release the camera so the VDC does not have to
			// terminate us (paper §4.4). Best-effort from a void listener:
			// if the release fails, VDC revocation is the backstop.
			_ = releaseDevice(s.clientIfAny(), devcon.SvcCamera) //vet:allow errflow voluntary release; VDC enforcement is the backstop
		},
		Breached: func() { s.setActive(false) }, // wait for control to return
	})
	return s
}

func (s *Survey) clientIfAny() *android.Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.client
}

func (s *Survey) setActive(v bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active = v
}

func (s *Survey) onActive(wp geo.Waypoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active = true
	s.waypoint = wp
	// Plan the sweep for this waypoint's area; fall back to a small orbit
	// inside the fence when no polygon was supplied.
	var area geo.Polygon
	if s.completed < len(s.areas) {
		area = s.areas[s.completed]
	}
	if len(area) >= 3 {
		s.path = area.Lawnmower(wp.Alt, s.spacing)
	} else {
		r := wp.MaxRadius * 0.5
		s.path = []geo.Position{
			{LatLon: geo.OffsetNE(wp.LatLon, r, 0), Alt: wp.Alt},
			{LatLon: geo.OffsetNE(wp.LatLon, 0, r), Alt: wp.Alt},
			{LatLon: geo.OffsetNE(wp.LatLon, -r, 0), Alt: wp.Alt},
		}
	}
	// Clamp sweep points into the geofence.
	fence := geo.FenceFor(wp)
	for i, p := range s.path {
		s.path[i] = fence.ClosestInside(p)
	}
	s.pathIdx = 0
	s.missionUp = false
	s.out = fmt.Sprintf("/data/%s/survey-%d.log", SurveyPackage, s.completed)
}

// uploadMission runs the MAVLink mission protocol against the VFC and
// switches to AUTO. Returns false if any step is refused.
func (s *Survey) uploadMission(path []geo.Position) bool {
	vfc := s.ctx.VD.VFC
	replies := vfc.Send(&mavlink.MissionCount{Count: uint16(len(path))})
	if len(replies) != 1 {
		return false
	}
	if _, ok := replies[0].(*mavlink.MissionRequestInt); !ok {
		return false
	}
	for i, p := range path {
		replies = vfc.Send(&mavlink.MissionItemInt{
			Seq: uint16(i), Command: mavlink.CmdNavWaypoint,
			LatE7: mavlink.LatLonToE7(p.Lat), LonE7: mavlink.LatLonToE7(p.Lon),
			Alt: float32(p.Alt), Autocontinue: 1,
		})
		if len(replies) == 1 {
			if ack, ok := replies[0].(*mavlink.MissionAck); ok && ack.Type != mavlink.MissionAccepted {
				return false
			}
		}
	}
	for _, r := range vfc.Send(&mavlink.SetMode{CustomMode: mavlink.ModeAuto}) {
		if ack, ok := r.(*mavlink.CommandAck); ok && ack.Result != mavlink.ResultAccepted {
			return false
		}
	}
	return true
}

// Tick implements core.Ticker: advance the sweep and record frames.
func (s *Survey) Tick(dt float64) {
	s.mu.Lock()
	if !s.active {
		s.mu.Unlock()
		return
	}
	idx := s.pathIdx
	path := s.path
	useMission := s.useMission
	missionUp := s.missionUp
	out := s.out
	s.mu.Unlock()

	if useMission {
		s.tickMission(path, missionUp, out)
		return
	}
	if idx >= len(path) {
		s.finishWaypoint()
		return
	}
	target := path[idx]
	gotoVFC(s.ctx, target)

	pos, ok := vfcPosition(s.ctx)
	if !ok {
		return
	}
	// Record a frame roughly every tick while sweeping.
	s.recordFrame(out)
	if geo.Distance3D(pos, target) < 3 {
		s.mu.Lock()
		s.pathIdx++
		s.mu.Unlock()
	}
}

// tickMission drives the AUTO-mode variant: upload once, then record frames
// until the vehicle reaches the final mission item.
func (s *Survey) tickMission(path []geo.Position, missionUp bool, out string) {
	if len(path) == 0 {
		s.finishWaypoint()
		return
	}
	if !missionUp {
		if s.uploadMission(path) {
			s.mu.Lock()
			s.missionUp = true
			s.mu.Unlock()
		}
		return
	}
	pos, ok := vfcPosition(s.ctx)
	if !ok {
		return
	}
	s.recordFrame(out)
	if geo.Distance3D(pos, path[len(path)-1]) < 3 {
		s.finishWaypoint()
	}
}

// recordFrame captures a frame, if the camera is granted, and appends its
// georeferenced record to the output file.
func (s *Survey) recordFrame(out string) {
	f, err := captureFrame(s.appClient())
	if err != nil {
		return
	}
	s.mu.Lock()
	s.frames++
	n := s.frames
	s.mu.Unlock()
	rec := fmt.Appendf(nil, "frame %d seq %d at %.7f,%.7f alt %.1f\n", n, f.Seq, f.Position.Lat, f.Position.Lon, f.Position.Alt)
	s.ctx.VD.Container.AppendFile(out, rec)
}

func (s *Survey) finishWaypoint() {
	s.mu.Lock()
	if !s.active {
		s.mu.Unlock()
		return
	}
	s.active = false
	out := s.out
	s.completed++
	s.mu.Unlock()
	_ = s.ctx.SDK.MarkFileForUser(out)
	s.ctx.SDK.WaypointCompleted()
}

// Frames returns the number of frames recorded.
func (s *Survey) Frames() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frames
}

func (s *Survey) appClient() *android.Client {
	s.mu.Lock()
	c := s.client
	s.mu.Unlock()
	if c != nil {
		return c
	}
	app, err := s.ctx.VD.Instance.App(SurveyPackage)
	if err == nil && app.Client() != nil {
		s.mu.Lock()
		s.client = app.Client()
		s.mu.Unlock()
		return s.client
	}
	// Fallback: fresh client with the app's uid.
	c = android.NewClient(s.ctx.VD.Instance.Namespace(), s.ctx.VD.UIDFor(SurveyPackage))
	s.mu.Lock()
	s.client = c
	s.mu.Unlock()
	return c
}

// OnCreate implements android.Lifecycle: resume progress from saved state.
func (s *Survey) OnCreate(app *android.App, saved []byte) {
	if len(saved) == 0 {
		return
	}
	var st struct {
		Completed int `json:"completed"`
		Frames    int `json:"frames"`
	}
	if json.Unmarshal(saved, &st) == nil {
		s.mu.Lock()
		s.completed = st.Completed
		s.frames = st.Frames
		s.mu.Unlock()
	}
}

// OnSaveInstanceState implements android.Lifecycle.
func (s *Survey) OnSaveInstanceState(app *android.App) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, _ := json.Marshal(map[string]int{"completed": s.completed, "frames": s.frames})
	return b
}

// OnDestroy implements android.Lifecycle.
func (s *Survey) OnDestroy(app *android.App) {}

// spacing field (kept separate to avoid exporting it).
var _ Ticker = (*Survey)(nil)

// Ticker aliases core.Ticker to assert implementations locally.
type Ticker = core.Ticker
