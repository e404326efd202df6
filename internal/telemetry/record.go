// Black-box dumps: FlightRecord is the typed, JSON-serializable snapshot
// of a drone's recent event stream, taken at a trigger point (invariant
// violation, geofence breach, permission revocation, VDR save). Records
// decode interned keys to strings so a saved file is self-contained.

package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// RecordEvent is one decoded event inside a FlightRecord.
type RecordEvent struct {
	Seq   uint64 `json:"seq"`
	Tick  uint64 `json:"tick"`
	Kind  string `json:"kind"`
	Drone string `json:"drone,omitempty"`
	A     int64  `json:"a,omitempty"`
	B     int64  `json:"b,omitempty"`
	Note  string `json:"note,omitempty"`
}

// FlightRecord is a black-box dump: the last N events relevant to one
// drone (or the whole system when Drone is empty), plus the trigger that
// caused the dump and any trigger-specific metadata (e.g. breach-recovery
// retry counts).
type FlightRecord struct {
	Drone   string             `json:"drone,omitempty"`
	Trigger string             `json:"trigger"`
	Tick    uint64             `json:"tick"`
	Seq     uint64             `json:"seq"`
	Meta    map[string]float64 `json:"meta,omitempty"`
	Events  []RecordEvent      `json:"events"`
}

// Dump snapshots the event stream for drone into a FlightRecord tagged
// with trigger, archives it in the recorder's bounded record list, and
// returns it. meta may be nil. Dump is a cold path — it allocates freely,
// but the record it produces must be replay-identical.
//
//vet:detpath black-box dumps are compared bit-for-bit across replays
func (r *Recorder) Dump(drone Key, trigger string, meta map[string]float64) FlightRecord {
	if r == nil || !enabled.Load() {
		return FlightRecord{Trigger: trigger}
	}
	events := r.Snapshot(drone)
	rec := FlightRecord{
		Drone:   KeyName(drone),
		Trigger: trigger,
		Tick:    r.tick.Load(),
		Seq:     r.seq.Add(1),
		Meta:    meta,
		Events:  decodeEvents(events),
	}
	r.rmu.Lock()
	r.records = append(r.records, rec)
	if len(r.records) > maxRecords {
		// Shift in place rather than reslice: a resliced window would keep
		// the records before it reachable through the backing array.
		n := copy(r.records, r.records[len(r.records)-maxRecords:])
		clear(r.records[n:])
		r.records = r.records[:n]
	}
	r.rmu.Unlock()
	mDumps.Inc()
	return rec
}

// DecodeEvents resolves the interned keys in a raw event snapshot to
// strings — the form HTTP trace endpoints and CLIs render.
//
//vet:detpath decoded traces must render identically across replays
func DecodeEvents(events []Event) []RecordEvent { return decodeEvents(events) }

func decodeEvents(events []Event) []RecordEvent {
	out := make([]RecordEvent, len(events))
	for i, ev := range events {
		out[i] = RecordEvent{
			Seq:   ev.Seq,
			Tick:  ev.Tick,
			Kind:  KeyName(ev.Kind),
			Drone: KeyName(ev.Drone),
			A:     ev.A,
			B:     ev.B,
			Note:  ev.Note,
		}
	}
	return out
}

// Records returns a copy of the archived FlightRecords, oldest first.
func (r *Recorder) Records() []FlightRecord {
	if r == nil {
		return nil
	}
	r.rmu.Lock()
	defer r.rmu.Unlock()
	return append([]FlightRecord(nil), r.records...)
}

// RecordsSince returns the archived records with Seq greater than seq —
// the flusher's incremental read.
func (r *Recorder) RecordsSince(seq uint64) []FlightRecord {
	if r == nil {
		return nil
	}
	r.rmu.Lock()
	defer r.rmu.Unlock()
	var out []FlightRecord
	for _, rec := range r.records {
		if rec.Seq > seq {
			out = append(out, rec)
		}
	}
	return out
}

// ParseRecords decodes a saved FlightRecord file: either a single JSON
// object or a JSON array of records.
func ParseRecords(data []byte) ([]FlightRecord, error) {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("telemetry: empty record file")
	}
	if trimmed[0] == '[' {
		var recs []FlightRecord
		if err := json.Unmarshal(trimmed, &recs); err != nil {
			return nil, fmt.Errorf("telemetry: parse records: %w", err)
		}
		return recs, nil
	}
	var rec FlightRecord
	if err := json.Unmarshal(trimmed, &rec); err != nil {
		return nil, fmt.Errorf("telemetry: parse record: %w", err)
	}
	return []FlightRecord{rec}, nil
}

// StartFlusher spawns a background goroutine that every interval hands
// newly archived FlightRecords to sink, and returns a stop function. The
// sink runs on the flusher goroutine with no recorder locks held, so it
// may block or take its own locks freely.
func (r *Recorder) StartFlusher(interval time.Duration, sink func([]FlightRecord)) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		var lastSeq uint64
		for {
			select {
			case <-done:
				return
			case <-t.C:
				recs := r.RecordsSince(lastSeq)
				if len(recs) == 0 {
					continue
				}
				lastSeq = recs[len(recs)-1].Seq
				sink(recs)
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
