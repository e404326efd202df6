package container

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func baseImage(store *Store) *Image {
	base := NewLayer(map[string][]byte{
		"/system/framework.jar": []byte("android-things-base"),
		"/system/init.rc":       []byte("boot services"),
		"/etc/hosts":            []byte("127.0.0.1 localhost"),
	})
	img := &Image{Name: "android-things:1.0.3", Layers: []*Layer{base}}
	return store.AddImage(img)
}

func TestLayerContentAddressing(t *testing.T) {
	a := NewLayer(map[string][]byte{"/a": []byte("x"), "/b": []byte("y")})
	b := NewLayer(map[string][]byte{"/b": []byte("y"), "/a": []byte("x")})
	if a.Digest() != b.Digest() {
		t.Fatal("identical content produced different digests")
	}
	c := NewLayer(map[string][]byte{"/a": []byte("x"), "/b": []byte("z")})
	if a.Digest() == c.Digest() {
		t.Fatal("different content produced the same digest")
	}
	// Path/content boundary confusion must not collide.
	d := NewLayer(map[string][]byte{"/ab": []byte("")})
	e := NewLayer(map[string][]byte{"/a": []byte("b")})
	if d.Digest() == e.Digest() {
		t.Fatal("boundary collision between path and content")
	}
}

func TestLayerDigestProperty(t *testing.T) {
	if err := quick.Check(func(p1, p2 string, b1, b2 []byte) bool {
		if p1 == p2 {
			// Duplicate keys collapse to whichever literal entry is last,
			// so the two maps would hold different values — not an
			// ordering property at all.
			return true
		}
		l1 := NewLayer(map[string][]byte{p1: b1, p2: b2})
		l2 := NewLayer(map[string][]byte{p2: b2, p1: b1})
		return l1.Digest() == l2.Digest()
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLayerDoesNotAliasCallerMemory(t *testing.T) {
	content := []byte("original")
	l := NewLayer(map[string][]byte{"/f": content})
	content[0] = 'X'
	l2 := NewLayer(map[string][]byte{"/f": []byte("original")})
	if l.Digest() != l2.Digest() {
		t.Fatal("layer aliased caller memory; mutation changed content")
	}
}

func TestStoreDeduplicatesLayers(t *testing.T) {
	store := NewStore()
	l1 := store.AddLayer(NewLayer(map[string][]byte{"/a": []byte("shared-base")}))
	l2 := store.AddLayer(NewLayer(map[string][]byte{"/a": []byte("shared-base")}))
	if l1 != l2 {
		t.Fatal("identical layers not deduplicated")
	}
	if store.StorageBytes() != l1.Size() {
		t.Fatalf("StorageBytes = %d, want %d", store.StorageBytes(), l1.Size())
	}
}

func TestSharedBaseImageStorage(t *testing.T) {
	// Many virtual drones sharing one base image cost one base plus diffs.
	store := NewStore()
	img := baseImage(store)
	baseBytes := store.StorageBytes()

	rt := NewRuntime(store, 880)
	var diffBytes int
	for i := 0; i < 5; i++ {
		name := fmt.Sprintf("vd%d", i)
		c, err := rt.Create(name, img.Name, Limits{MemoryMB: 10})
		if err != nil {
			t.Fatal(err)
		}
		c.WriteFile("/data/app.state", []byte(name))
		diff := store.AddLayer(c.DiffLayer())
		diffBytes += diff.Size()
	}
	total := store.StorageBytes()
	if total != baseBytes+diffBytes {
		t.Fatalf("storage = %d, want base %d + diffs %d", total, baseBytes, diffBytes)
	}
}

func TestContainerCopyOnWrite(t *testing.T) {
	store := NewStore()
	img := baseImage(store)
	rt := NewRuntime(store, 880)
	c1, _ := rt.Create("vd1", img.Name, Limits{MemoryMB: 185})
	c2, _ := rt.Create("vd2", img.Name, Limits{MemoryMB: 185})

	c1.WriteFile("/etc/hosts", []byte("modified"))
	got, err := c2.ReadFile("/etc/hosts")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("127.0.0.1 localhost")) {
		t.Fatalf("c2 sees c1's write: %q", got)
	}
	got, _ = c1.ReadFile("/etc/hosts")
	if !bytes.Equal(got, []byte("modified")) {
		t.Fatalf("c1 write not visible: %q", got)
	}
}

func TestContainerWhiteout(t *testing.T) {
	store := NewStore()
	img := baseImage(store)
	rt := NewRuntime(store, 880)
	c, _ := rt.Create("vd1", img.Name, Limits{MemoryMB: 185})

	if err := c.RemoveFile("/etc/hosts"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadFile("/etc/hosts"); !errors.Is(err, ErrFileNotFound) {
		t.Fatalf("deleted file readable: %v", err)
	}
	for _, p := range c.ListFiles() {
		if p == "/etc/hosts" {
			t.Fatal("deleted file still listed")
		}
	}
	// Re-adding after deletion restores visibility.
	c.WriteFile("/etc/hosts", []byte("new"))
	got, err := c.ReadFile("/etc/hosts")
	if err != nil || !bytes.Equal(got, []byte("new")) {
		t.Fatalf("re-added file: %q, %v", got, err)
	}
	found := false
	for _, p := range c.ListFiles() {
		if p == "/etc/hosts" {
			found = true
		}
	}
	if !found {
		t.Fatal("re-added file not listed")
	}
}

func TestRemoveMissingFile(t *testing.T) {
	store := NewStore()
	img := baseImage(store)
	rt := NewRuntime(store, 880)
	c, _ := rt.Create("vd1", img.Name, Limits{MemoryMB: 185})
	if err := c.RemoveFile("/no/such"); !errors.Is(err, ErrFileNotFound) {
		t.Fatalf("err = %v, want ErrFileNotFound", err)
	}
}

func TestLifecycle(t *testing.T) {
	store := NewStore()
	img := baseImage(store)
	rt := NewRuntime(store, 880)
	c, err := rt.Create("vd1", img.Name, Limits{MemoryMB: 185})
	if err != nil {
		t.Fatal(err)
	}
	if c.State() != Created {
		t.Fatalf("state = %v, want created", c.State())
	}
	if err := rt.Start("vd1"); err != nil {
		t.Fatal(err)
	}
	if c.State() != Running {
		t.Fatalf("state = %v, want running", c.State())
	}
	if err := rt.Start("vd1"); !errors.Is(err, ErrBadState) {
		t.Fatalf("double start: %v, want ErrBadState", err)
	}
	if err := rt.Remove("vd1"); !errors.Is(err, ErrBadState) {
		t.Fatalf("remove running: %v, want ErrBadState", err)
	}
	if err := rt.Stop("vd1"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Stop("vd1"); !errors.Is(err, ErrBadState) {
		t.Fatalf("double stop: %v, want ErrBadState", err)
	}
	if err := rt.Remove("vd1"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Get("vd1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("removed container still present: %v", err)
	}
}

func TestMemoryBudgetFourthDroneFails(t *testing.T) {
	// The prototype: 880 MB available, ~100 MB host+VDC is outside the
	// runtime, 150 MB for device+flight containers, 185 MB per virtual
	// drone. Three virtual drones fit; a fourth fails to start without
	// interfering with the others.
	store := NewStore()
	img := baseImage(store)
	rt := NewRuntime(store, 880-100) // host/VDC accounted outside
	for _, c := range []struct {
		name string
		mb   int
	}{{"devcon", 75}, {"flightcon", 75}} {
		if _, err := rt.Create(c.name, img.Name, Limits{MemoryMB: c.mb}); err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(c.name); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("vd%d", i)
		if _, err := rt.Create(name, img.Name, Limits{MemoryMB: 185}); err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(name); err != nil {
			t.Fatalf("virtual drone %d failed to start: %v", i, err)
		}
	}
	if _, err := rt.Create("vd4", img.Name, Limits{MemoryMB: 185}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start("vd4"); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("fourth drone start: %v, want ErrOutOfMemory", err)
	}
	// The failure did not interfere with running drones.
	if got := len(rt.Running()); got != 5 {
		t.Fatalf("running containers = %d, want 5", got)
	}
	// Stopping one frees memory for the fourth.
	if err := rt.Stop("vd1"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start("vd4"); err != nil {
		t.Fatalf("fourth drone after freeing memory: %v", err)
	}
}

func TestMemoryAccounting(t *testing.T) {
	store := NewStore()
	img := baseImage(store)
	rt := NewRuntime(store, 500)
	rtMustCreate(t, rt, "a", img.Name, 100)
	rtMustCreate(t, rt, "b", img.Name, 200)
	if rt.MemoryUsedMB() != 0 {
		t.Fatalf("created containers reserve memory: %d", rt.MemoryUsedMB())
	}
	mustStart(t, rt, "a")
	mustStart(t, rt, "b")
	if rt.MemoryUsedMB() != 300 {
		t.Fatalf("used = %d, want 300", rt.MemoryUsedMB())
	}
	if err := rt.Stop("a"); err != nil {
		t.Fatal(err)
	}
	if rt.MemoryUsedMB() != 200 {
		t.Fatalf("after stop used = %d, want 200", rt.MemoryUsedMB())
	}
}

func TestCheckpointRestore(t *testing.T) {
	store := NewStore()
	img := baseImage(store)
	rt := NewRuntime(store, 880)
	c, _ := rt.Create("vd1", img.Name, Limits{MemoryMB: 185, CPUShares: 512})
	c.WriteFile("/data/com.example.survey/state", []byte("waypoint 1 of 2 done"))
	if err := c.RemoveFile("/etc/hosts"); err != nil {
		t.Fatal(err)
	}

	blob, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// Restore on "different drone hardware": a fresh runtime sharing the
	// base image store (the VDR holds base images).
	rt2 := NewRuntime(store, 880)
	c2, err := rt2.Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.ReadFile("/data/com.example.survey/state")
	if err != nil || !bytes.Equal(got, []byte("waypoint 1 of 2 done")) {
		t.Fatalf("restored state = %q, %v", got, err)
	}
	if _, err := c2.ReadFile("/etc/hosts"); !errors.Is(err, ErrFileNotFound) {
		t.Fatal("whiteout not preserved across checkpoint")
	}
	if c2.Limits().CPUShares != 512 {
		t.Fatalf("limits not preserved: %+v", c2.Limits())
	}
	// Base image content still visible.
	if _, err := c2.ReadFile("/system/framework.jar"); err != nil {
		t.Fatalf("base image content lost: %v", err)
	}
}

func TestRestoreBadBlob(t *testing.T) {
	rt := NewRuntime(NewStore(), 880)
	if _, err := rt.Restore([]byte("not json")); err == nil {
		t.Fatal("bad checkpoint accepted")
	}
}

func TestRestoreMissingImage(t *testing.T) {
	store := NewStore()
	img := baseImage(store)
	rt := NewRuntime(store, 880)
	c, _ := rt.Create("vd1", img.Name, Limits{MemoryMB: 185})
	blob, _ := c.Checkpoint()

	rt2 := NewRuntime(NewStore(), 880) // empty store, no base image
	if _, err := rt2.Restore(blob); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restore without base image: %v, want ErrNotFound", err)
	}
}

func TestDuplicateContainerName(t *testing.T) {
	store := NewStore()
	img := baseImage(store)
	rt := NewRuntime(store, 880)
	rtMustCreate(t, rt, "vd1", img.Name, 10)
	if _, err := rt.Create("vd1", img.Name, Limits{MemoryMB: 10}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v, want ErrExists", err)
	}
}

func TestCreateUnknownImage(t *testing.T) {
	rt := NewRuntime(NewStore(), 880)
	if _, err := rt.Create("vd1", "nope", Limits{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestCPUShares(t *testing.T) {
	store := NewStore()
	img := baseImage(store)
	rt := NewRuntime(store, 880)
	rtMustCreate(t, rt, "a", img.Name, 10)
	rtMustCreate(t, rt, "b", img.Name, 10)
	mustStart(t, rt, "a")
	mustStart(t, rt, "b")
	// Defaults: equal shares.
	fa, err := rt.CPUFraction("a")
	if err != nil {
		t.Fatal(err)
	}
	if fa != 0.5 {
		t.Fatalf("fraction = %g, want 0.5", fa)
	}
	// Weighted container.
	c, _ := rt.Create("big", img.Name, Limits{MemoryMB: 10, CPUShares: 2048})
	mustStart(t, rt, "big")
	fb, _ := rt.CPUFraction("big")
	if fb != 0.5 {
		t.Fatalf("weighted fraction = %g, want 0.5 (2048 of 4096)", fb)
	}
	_ = c
	// Stopped containers get zero.
	if err := rt.Stop("a"); err != nil {
		t.Fatal(err)
	}
	fa, _ = rt.CPUFraction("a")
	if fa != 0 {
		t.Fatalf("stopped fraction = %g, want 0", fa)
	}
}

func TestLayeredImageStack(t *testing.T) {
	// An upper layer overrides and deletes files from a lower layer.
	store := NewStore()
	lower := NewLayer(map[string][]byte{"/a": []byte("1"), "/b": []byte("1"), "/c": []byte("1")})
	upper := NewLayer(map[string][]byte{"/a": []byte("2"), ".wh./b": nil})
	img := store.AddImage(&Image{Name: "stacked", Layers: []*Layer{lower, upper}})
	rt := NewRuntime(store, 880)
	c, _ := rt.Create("x", img.Name, Limits{MemoryMB: 10})

	got, _ := c.ReadFile("/a")
	if !bytes.Equal(got, []byte("2")) {
		t.Fatalf("/a = %q, want upper layer content", got)
	}
	if _, err := c.ReadFile("/b"); !errors.Is(err, ErrFileNotFound) {
		t.Fatal("image-level whiteout ignored")
	}
	if _, err := c.ReadFile("/c"); err != nil {
		t.Fatalf("/c lost: %v", err)
	}
}

func TestListFiles(t *testing.T) {
	store := NewStore()
	img := baseImage(store)
	rt := NewRuntime(store, 880)
	c, _ := rt.Create("vd1", img.Name, Limits{MemoryMB: 10})
	c.WriteFile("/data/x", []byte("1"))
	files := c.ListFiles()
	want := []string{"/data/x", "/etc/hosts", "/system/framework.jar", "/system/init.rc"}
	if len(files) != len(want) {
		t.Fatalf("ListFiles = %v, want %v", files, want)
	}
	for i := range want {
		if files[i] != want[i] {
			t.Fatalf("ListFiles = %v, want %v", files, want)
		}
	}
}

func rtMustCreate(t *testing.T, rt *Runtime, name, image string, mb int) {
	t.Helper()
	if _, err := rt.Create(name, image, Limits{MemoryMB: mb}); err != nil {
		t.Fatal(err)
	}
}

func mustStart(t *testing.T, rt *Runtime, name string) {
	t.Helper()
	if err := rt.Start(name); err != nil {
		t.Fatal(err)
	}
}

func TestImageExportImport(t *testing.T) {
	src := NewStore()
	img := baseImage(src)
	blob, err := src.ExportImage(img.Name)
	if err != nil {
		t.Fatal(err)
	}

	dst := NewStore()
	got, err := dst.ImportImage(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != img.Name || len(got.Layers) != len(img.Layers) {
		t.Fatalf("imported = %+v", got)
	}
	// Content identical: digests match layer for layer.
	for i := range img.Layers {
		if got.Layers[i].Digest() != img.Layers[i].Digest() {
			t.Fatalf("layer %d digest mismatch", i)
		}
	}
	// A container on the imported image reads base content.
	rt := NewRuntime(dst, 880)
	c, err := rt.Create("x", img.Name, Limits{MemoryMB: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadFile("/etc/hosts"); err != nil {
		t.Fatal(err)
	}
}

func TestImportRejectsCorruptArchive(t *testing.T) {
	src := NewStore()
	img := baseImage(src)
	blob, _ := src.ExportImage(img.Name)

	// Corrupt the recorded digest: the recomputed content address must no
	// longer match (equivalently, any content change breaks the old digest).
	digest := img.Layers[0].Digest()
	bad := bytes.Replace(blob, []byte(digest[:8]), []byte("deadbeef"), 1)
	if bytes.Equal(bad, blob) {
		t.Fatal("test setup: digest not found in archive")
	}
	if _, err := NewStore().ImportImage(bad); err == nil {
		t.Fatal("corrupt archive accepted")
	}
	if _, err := NewStore().ImportImage([]byte("junk")); err == nil {
		t.Fatal("junk archive accepted")
	}
	if _, err := NewStore().ImportImage([]byte(`{"name":""}`)); err == nil {
		t.Fatal("nameless archive accepted")
	}
	if _, err := src.ExportImage("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("export missing: %v", err)
	}
}

// rewriteAppend is the read, concatenate and rewrite sequence AppendFile
// replaces; AppendFile must leave the same writable layer.
func rewriteAppend(c *Container, path string, data []byte) {
	if prev, err := c.ReadFile(path); err == nil {
		data = append(prev, data...)
	}
	c.WriteFile(path, data)
}

func TestAppendFileMatchesRewrite(t *testing.T) {
	store := NewStore()
	img := baseImage(store)
	rt := NewRuntime(store, 880)
	a, _ := rt.Create("append", img.Name, Limits{MemoryMB: 185})
	b, _ := rt.Create("rewrite", img.Name, Limits{MemoryMB: 185})
	for _, c := range []*Container{a, b} {
		if err := c.RemoveFile("/system/init.rc"); err != nil {
			t.Fatal(err)
		}
	}
	same := func(step string) {
		t.Helper()
		if da, db := a.DiffLayer().Digest(), b.DiffLayer().Digest(); da != db {
			t.Fatalf("%s: diff layer digest %s, rewrite gives %s", step, da[:12], db[:12])
		}
		for _, p := range b.ListFiles() {
			want, _ := b.ReadFile(p)
			if got, err := a.ReadFile(p); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: %s = %q, %v; rewrite gives %q", step, p, got, err, want)
			}
		}
	}
	appendBoth := func(path, data string) {
		a.AppendFile(path, []byte(data))
		rewriteAppend(b, path, []byte(data))
	}

	appendBoth("/data/new.log", "frame 1\n") // new file
	appendBoth("/data/new.log", "frame 2\n")
	same("new file")
	appendBoth("/etc/hosts", "\n10.0.0.1 gcs") // copy-up from the image
	appendBoth("/etc/hosts", "\n10.0.0.2 vdc")
	same("image-backed file")
	appendBoth("/system/init.rc", "fresh") // whited out: starts empty
	same("whited-out file")
	if got, _ := a.ReadFile("/system/init.rc"); string(got) != "fresh" {
		t.Fatalf("append to a whited-out file kept image content: %q", got)
	}

	// The image itself is never modified.
	other, _ := rt.Create("other", img.Name, Limits{MemoryMB: 185})
	if got, _ := other.ReadFile("/etc/hosts"); string(got) != "127.0.0.1 localhost" {
		t.Fatalf("append leaked into the image: %q", got)
	}

	// Appending after a checkpoint/restore round trip continues the file
	// and leaves the checkpoint itself untouched.
	blobA, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	blobB, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	rt2 := NewRuntime(store, 880)
	if a, err = rt2.Restore(blobA); err != nil {
		t.Fatal(err)
	}
	if b, err = rt2.Restore(blobB); err != nil {
		t.Fatal(err)
	}
	same("restored")
	appendBoth("/data/new.log", "frame 3\n")
	appendBoth("/etc/hosts", "\n10.0.0.3 cloud")
	same("append after restore")
	if got, _ := a.ReadFile("/data/new.log"); string(got) != "frame 1\nframe 2\nframe 3\n" {
		t.Fatalf("restored log = %q", got)
	}
	c3, err := NewRuntime(store, 880).Restore(blobA)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := c3.ReadFile("/data/new.log"); string(got) != "frame 1\nframe 2\n" {
		t.Fatalf("checkpoint changed by a later append: %q", got)
	}
}
