package cloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"androne/internal/container"
)

// canonicalCheckpoint builds checkpoint bytes exactly as the container
// runtime emits them, so the layer splitter takes the split path rather
// than the opaque fallback.
func canonicalCheckpoint(t *testing.T, name string, upper map[string][]byte) []byte {
	t.Helper()
	raw, err := json.Marshal(container.Checkpoint{
		Name:      name,
		ImageName: "androne/minimal-android",
		Limits:    container.Limits{MemoryMB: 512, CPUShares: 1024},
		Upper:     upper,
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func layerKinds(m Manifest) []string {
	kinds := make([]string, 0, len(m.Layers))
	for _, l := range m.Layers {
		kinds = append(kinds, l.Kind)
	}
	return kinds
}

// TestVDRLayeredRoundTrip saves a canonical checkpoint, checks it splits
// into the expected layers, and requires Load to reassemble the exact
// bytes Save was handed — the property the VDC's splice detection and the
// simharness restore invariants ride on.
func TestVDRLayeredRoundTrip(t *testing.T) {
	v := NewVDR()
	cp := canonicalCheckpoint(t, "survey", map[string][]byte{
		"/data/app/com.androne.photo/code":  []byte("apk"),
		"/data/data/com.androne.photo/shot": []byte("jpeg"),
		FlightProgressPath:                  []byte(`{"waypoint":1}`),
		"/out/photos/wp1.jpg":               []byte("payload"),
	})
	e := VDREntry{
		Name: "survey", Owner: "buildco",
		Definition: []byte(`{"name":"survey"}`),
		Checkpoint: cp,
		SavedAt:    time.Unix(1700000000, 0).UTC(),
	}
	if err := v.Save(e); err != nil {
		t.Fatal(err)
	}

	m, err := v.Manifest("survey")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{LayerDefinition, LayerBase, LayerAppSet, LayerState}
	if got := layerKinds(m); len(got) != len(want) {
		t.Fatalf("layers = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("layers = %v, want %v", got, want)
			}
		}
	}
	if m.ContainerName != "survey" {
		t.Fatalf("manifest container name %q", m.ContainerName)
	}

	got, err := v.Load("survey")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Checkpoint, cp) {
		t.Fatal("checkpoint did not round-trip bit-identical through the layers")
	}
	if !bytes.Equal(got.Definition, e.Definition) || got.Owner != "buildco" || !got.SavedAt.Equal(e.SavedAt) {
		t.Fatalf("entry fields lost: %+v", got)
	}

	// The split rule: app files live in the appset layer, the per-flight
	// progress file and outputs in the state layer.
	for path, app := range map[string]bool{
		"/data/app/x":        true,
		FlightProgressPath:   false,
		"/out/result":        false,
		"/data/data/x/prefs": true,
	} {
		if inAppSet(path) != app {
			t.Fatalf("inAppSet(%q) = %v, want %v", path, !app, app)
		}
	}
}

// TestVDRLayerDedupAcrossChurn pins why the format exists: across a
// save/restore churn only the state layer changes, and across tenants on
// the same image the base layer is shared — so physical bytes stay near
// one generation while logical bytes grow per save.
func TestVDRLayerDedupAcrossChurn(t *testing.T) {
	store := NewBlobStore()
	v := NewVDRWith(store, DefaultQuotas())
	upper := func(progress string) map[string][]byte {
		return map[string][]byte{
			"/data/app/com.androne.photo/code": bytes.Repeat([]byte("apk"), 1000),
			FlightProgressPath:                 []byte(progress),
		}
	}
	save := func(name, owner, progress string) {
		t.Helper()
		err := v.Save(VDREntry{
			Name: name, Owner: owner,
			Definition: []byte(`{"name":"` + name + `"}`),
			Checkpoint: canonicalCheckpoint(t, name, upper(progress)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	save("drone-a", "alice", `{"wp":1}`)
	base := store.Stats()

	// Churn: same drone, new progress. Definition, base, and appset layers
	// must all dedup; only the small state layer is new.
	save("drone-a", "alice", `{"wp":2}`)
	st := store.Stats()
	if st.DedupHits < base.DedupHits+3 {
		t.Fatalf("churn save deduped %d layers, want >= 3 (stats %+v)", st.DedupHits-base.DedupHits, st)
	}
	newPhysical := st.PhysicalBytes - base.PhysicalBytes
	if newPhysical >= 1000 {
		t.Fatalf("churn save stored %d new bytes; the 3 KB appset should have deduped", newPhysical)
	}

	// A second tenant's drone on the same image shares the base layer.
	before := store.Stats().DedupHits
	save("drone-b", "bob", `{"wp":1}`)
	if store.Stats().DedupHits <= before {
		t.Fatal("cross-tenant save shared no layers (base should dedup)")
	}

	// An identical re-save is a 100% dedup hit: zero new physical bytes.
	phys := store.Stats().PhysicalBytes
	save("drone-a", "alice", `{"wp":2}`)
	if got := store.Stats().PhysicalBytes; got != phys {
		t.Fatalf("identical re-save stored %d new bytes", got-phys)
	}
	if ratio := store.Stats().DedupRatio(); ratio <= 1.5 {
		t.Fatalf("dedup ratio %.2f after churn, want > 1.5", ratio)
	}
}

// TestVDRLayerQuota exercises the per-tenant layer quota: saves past the
// cap fail typed, replacement of the same entry needs no headroom, and
// other tenants are unaffected.
func TestVDRLayerQuota(t *testing.T) {
	v := NewVDRWith(NewBlobStore(), Quotas{MaxVDRLayersPerTenant: 2})
	one := VDREntry{Name: "a1", Owner: "alice", Definition: []byte(`{"a":1}`)}
	if err := v.Save(one); err != nil {
		t.Fatal(err)
	}
	if err := v.Save(VDREntry{Name: "a2", Owner: "alice", Definition: []byte(`{"a":2}`)}); err != nil {
		t.Fatal(err)
	}
	err := v.Save(VDREntry{Name: "a3", Owner: "alice", Definition: []byte(`{"a":3}`)})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third layer for alice: %v", err)
	}
	// Steady-state churn: replacing a1 swaps layers 1-for-1 and fits.
	one.Completed = true
	if err := v.Save(one); err != nil {
		t.Fatalf("replacement save should fit inside the quota: %v", err)
	}
	if err := v.Save(VDREntry{Name: "b1", Owner: "bob", Definition: []byte(`{"b":1}`)}); err != nil {
		t.Fatalf("bob must not be throttled by alice's quota: %v", err)
	}
	if got := v.OwnerLayers("alice"); got != 2 {
		t.Fatalf("alice holds %d layers, want 2", got)
	}
}

// TestVDRCorruptLayerSurfaces corrupts one stored layer and expects Load
// to fail loudly while List degrades to metadata for that entry instead of
// crashing or hiding it.
func TestVDRCorruptLayerSurfaces(t *testing.T) {
	store := NewBlobStore()
	v := NewVDRWith(store, DefaultQuotas())
	cp := canonicalCheckpoint(t, "frail", map[string][]byte{FlightProgressPath: []byte("{}")})
	if err := v.Save(VDREntry{Name: "frail", Owner: "carol", Definition: []byte(`{}`), Checkpoint: cp}); err != nil {
		t.Fatal(err)
	}
	m, err := v.Manifest("frail")
	if err != nil {
		t.Fatal(err)
	}
	var stateDigest string
	for _, l := range m.Layers {
		if l.Kind == LayerState {
			stateDigest = l.Digest
		}
	}
	store.mu.Lock()
	store.blobs[stateDigest].data[0] ^= 0xFF
	store.mu.Unlock()

	if _, err := v.Load("frail"); !errors.Is(err, ErrLayerCorrupt) {
		t.Fatalf("Load of corrupt entry: %v", err)
	}
	entries := v.List()
	if len(entries) != 1 || entries[0].Name != "frail" {
		t.Fatalf("List hid the corrupt entry: %+v", entries)
	}
	if entries[0].Checkpoint != nil || entries[0].Definition != nil {
		t.Fatal("List returned unverified layer bytes for a corrupt entry")
	}
}

// TestVDROpaqueFallback stores a checkpoint that is not canonical
// container JSON and expects a single opaque layer that still round-trips
// exactly — the compatibility guarantee for hand-built entries.
func TestVDROpaqueFallback(t *testing.T) {
	v := NewVDR()
	raw := []byte("not-json-checkpoint-bytes")
	if err := v.Save(VDREntry{Name: "legacy", Owner: "dave", Checkpoint: raw}); err != nil {
		t.Fatal(err)
	}
	m, _ := v.Manifest("legacy")
	if len(m.Layers) != 1 || m.Layers[0].Kind != LayerOpaque {
		t.Fatalf("layers = %v, want one opaque", layerKinds(m))
	}
	got, err := v.Load("legacy")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Checkpoint, raw) {
		t.Fatal("opaque checkpoint did not round-trip")
	}
}

// TestVDRDeleteReleasesLayers deletes an entry and checks the quota
// account drains and the layers drop to zero references (into the
// retention pool, where an unrelated future save could still revive them).
func TestVDRDeleteReleasesLayers(t *testing.T) {
	store := NewBlobStore()
	v := NewVDRWith(store, DefaultQuotas())
	if err := v.Save(VDREntry{Name: "gone", Owner: "erin", Definition: []byte(`{"x":1}`)}); err != nil {
		t.Fatal(err)
	}
	m, _ := v.Manifest("gone")
	v.Delete("gone")
	if got := v.OwnerLayers("erin"); got != 0 {
		t.Fatalf("erin still holds %d layers", got)
	}
	if _, err := v.Load("gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load after delete: %v", err)
	}
	if _, refs, ok := store.Stat(m.Layers[0].Digest); !ok || refs != 0 {
		t.Fatalf("deleted entry's layer refs = %d, %v; want retained at 0", refs, ok)
	}
	v.Delete("gone") // idempotent
}

// layerBytes returns the stored bytes of m's layer of the given kind.
func layerBytes(t *testing.T, v *VDR, m Manifest, kind string) []byte {
	t.Helper()
	for _, l := range m.Layers {
		if l.Kind == kind {
			b, err := v.Store().Get(l.Digest)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
	}
	t.Fatalf("no %s layer in %v", kind, layerKinds(m))
	return nil
}

// TestVDRLayersAreMarshalledSubmaps pins the layer format: spliced at
// record level, each layer is still byte for byte what json.Marshal
// writes for its part, so digests and dedup match a reflection split.
func TestVDRLayersAreMarshalledSubmaps(t *testing.T) {
	v := NewVDR()
	upper := map[string][]byte{
		"/data/app/com.androne.photo/code": []byte("apk"),
		"/data/<odd>&\"path\"":             {},
		FlightProgressPath:                 []byte(`{"waypoint":1}`),
		"/.wh./etc/hosts":                  nil,
		"/sdcard/frame":                    {0xFF, 0x00, 0x7F},
	}
	cp := canonicalCheckpoint(t, "split", upper)
	if err := v.Save(VDREntry{Name: "split", Owner: "o", Checkpoint: cp}); err != nil {
		t.Fatal(err)
	}
	m, err := v.Manifest("split")
	if err != nil {
		t.Fatal(err)
	}
	appset, state := map[string][]byte{}, map[string][]byte{}
	for p, b := range upper {
		if inAppSet(p) {
			appset[p] = b
		} else {
			state[p] = b
		}
	}
	base, _ := json.Marshal(struct {
		Image  string           `json:"image"`
		Limits container.Limits `json:"limits"`
	}{"androne/minimal-android", container.Limits{MemoryMB: 512, CPUShares: 1024}})
	wantApp, _ := json.Marshal(appset)
	wantState, _ := json.Marshal(state)
	for kind, want := range map[string][]byte{LayerBase: base, LayerAppSet: wantApp, LayerState: wantState} {
		if got := layerBytes(t, v, m, kind); !bytes.Equal(got, want) {
			t.Errorf("%s layer:\n got %s\nwant %s", kind, got, want)
		}
	}
}

// TestVDRNonCanonicalFallsBackOpaque: valid JSON checkpoints that are not
// in the canonical form take the opaque layer and load back bit-identical.
// The container runtime refuses to restore them.
func TestVDRNonCanonicalFallsBackOpaque(t *testing.T) {
	cp := container.Checkpoint{Name: "vd", ImageName: "img", Limits: container.Limits{MemoryMB: 1},
		Upper: map[string][]byte{"/data/a": []byte("x"), "/out/b": []byte("y")}}
	indented, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	const tail = `"limits":{"MemoryMB":1,"CPUShares":0}`
	docs := map[string][]byte{
		"whitespace":     indented,
		"reordered keys": []byte(`{"image":"img","name":"vd",` + tail + `,"upper":{"/data/a":"eA==","/out/b":"eQ=="}}`),
		"duplicate path": []byte(`{"name":"vd","image":"img",` + tail + `,"upper":{"/data/a":"eA==","/data/a":"eQ=="}}`),
		"null upper":     []byte(`{"name":"vd","image":"img",` + tail + `,"upper":null}`),
	}
	for name, doc := range docs {
		if !json.Valid(doc) {
			t.Fatalf("%s: fixture is not valid JSON", name)
		}
		v := NewVDR()
		if err := v.Save(VDREntry{Name: "vd", Owner: "o", Definition: []byte(`{}`), Checkpoint: doc}); err != nil {
			t.Fatal(err)
		}
		m, _ := v.Manifest("vd")
		if kinds := layerKinds(m); len(kinds) != 2 || kinds[1] != LayerOpaque || m.ContainerName != "" {
			t.Errorf("%s: layers %v, container name %q; want definition + opaque", name, kinds, m.ContainerName)
		}
		got, err := v.Load("vd")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Checkpoint, doc) {
			t.Errorf("%s: opaque checkpoint did not round-trip", name)
		}
		if name == "null upper" {
			continue // canonical, just not splittable
		}
		if _, err := container.NewRuntime(container.NewStore(), 100).Restore(doc); !errors.Is(err, container.ErrNotCanonical) {
			t.Errorf("%s: Restore err = %v, want ErrNotCanonical", name, err)
		}
	}
}

// BenchmarkVDRCycle is one Save and Load of a 1 MiB container state with
// one of its 16 files rewritten since the previous save, as in the
// vdr-churn workload; throughput is in checkpoint bytes.
func BenchmarkVDRCycle(b *testing.B) {
	upper := map[string][]byte{FlightProgressPath: []byte(`{"started":true}`)}
	for k := 0; k < 16; k++ {
		upper[fmt.Sprintf("/sdcard/frames/slot-%02d", k)] = bytes.Repeat([]byte{byte(k)}, 64<<10)
	}
	gens := make([][]byte, 2)
	for g := range gens {
		upper["/sdcard/frames/slot-00"] = bytes.Repeat([]byte{byte(0x80 + g)}, 64<<10)
		cp, err := json.Marshal(container.Checkpoint{Name: "vd", ImageName: "img",
			Limits: container.Limits{MemoryMB: 185}, Upper: upper})
		if err != nil {
			b.Fatal(err)
		}
		gens[g] = cp
	}
	v := NewVDR()
	def := []byte(`{"name":"vd"}`)
	b.SetBytes(int64(len(gens[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Save(VDREntry{Name: "vd", Owner: "o", Definition: def, Checkpoint: gens[i%2]}); err != nil {
			b.Fatal(err)
		}
		if _, err := v.Load("vd"); err != nil {
			b.Fatal(err)
		}
	}
}
