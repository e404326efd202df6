package container

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"testing"
	"testing/quick"
)

// TestContainerFilesystemModel model-checks the container's union
// filesystem against a plain map: random sequences of write/remove/read/
// append operations must behave identically.
func TestContainerFilesystemModel(t *testing.T) {
	paths := []string{"/a", "/b", "/sys/base", "/data/x", "/data/y"}

	check := func(ops []uint8) bool {
		store := NewStore()
		img := store.AddImage(&Image{Name: "m", Layers: []*Layer{
			NewLayer(map[string][]byte{"/sys/base": []byte("base"), "/a": []byte("A")}),
		}})
		_ = img
		rt := NewRuntime(store, 100)
		c, err := rt.Create("m", "m", Limits{MemoryMB: 1})
		if err != nil {
			return false
		}
		// Reference model.
		model := map[string][]byte{"/sys/base": []byte("base"), "/a": []byte("A")}

		for i, op := range ops {
			path := paths[int(op>>4)%len(paths)]
			switch op % 4 {
			case 0: // write
				content := []byte(fmt.Sprintf("v%d", i))
				c.WriteFile(path, content)
				model[path] = content
			case 1: // remove
				err := c.RemoveFile(path)
				_, existed := model[path]
				if existed != (err == nil) {
					return false
				}
				delete(model, path)
			case 2: // read
				got, err := c.ReadFile(path)
				want, existed := model[path]
				if existed != (err == nil) {
					return false
				}
				if existed && !bytes.Equal(got, want) {
					return false
				}
			case 3: // append
				content := []byte(fmt.Sprintf("+%d", i))
				c.AppendFile(path, content)
				model[path] = append(append([]byte(nil), model[path]...), content...)
			}
		}
		// Final listing matches the model.
		files := c.ListFiles()
		if len(files) != len(model) {
			return false
		}
		for _, p := range files {
			if _, ok := model[p]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRestoreProperty: any sequence of writes/removes survives a
// checkpoint/restore round trip bit-for-bit.
func TestCheckpointRestoreProperty(t *testing.T) {
	check := func(writes map[string][]byte, removeBase bool) bool {
		store := NewStore()
		store.AddImage(&Image{Name: "m", Layers: []*Layer{
			NewLayer(map[string][]byte{"/base": []byte("B")}),
		}})
		rt := NewRuntime(store, 100)
		c, err := rt.Create("m", "m", Limits{MemoryMB: 1})
		if err != nil {
			return false
		}
		for p, data := range writes {
			if p == "" {
				continue
			}
			c.WriteFile("/w/"+sanitize(p), data)
		}
		if removeBase {
			if err := c.RemoveFile("/base"); err != nil {
				return false
			}
		}
		blob, err := c.Checkpoint()
		if err != nil {
			return false
		}
		rt2 := NewRuntime(store, 100)
		c2, err := rt2.Restore(blob)
		if err != nil {
			return false
		}
		for p, want := range writes {
			if p == "" {
				continue
			}
			got, err := c2.ReadFile("/w/" + sanitize(p))
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		_, err = c2.ReadFile("/base")
		if removeBase != errors.Is(err, ErrFileNotFound) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// sanitize maps an arbitrary string to a stable path-safe token.
func sanitize(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%x", h.Sum64())
}

// TestMemoryAccountingProperty: any sequence of start/stop keeps the
// runtime's memory ledger equal to the sum of running containers, and never
// above the budget.
func TestMemoryAccountingProperty(t *testing.T) {
	check := func(ops []uint8) bool {
		store := NewStore()
		store.AddImage(&Image{Name: "m", Layers: []*Layer{
			NewLayer(map[string][]byte{"/x": []byte("x")}),
		}})
		const budget = 500
		rt := NewRuntime(store, budget)
		sizes := []int{60, 110, 185, 240}
		running := map[string]int{}
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("c%d", i)
			if _, err := rt.Create(name, "m", Limits{MemoryMB: sizes[i%len(sizes)]}); err != nil {
				return false
			}
		}
		for _, op := range ops {
			name := fmt.Sprintf("c%d", int(op>>4)%6)
			size := sizes[(int(op>>4)%6)%len(sizes)]
			if op%2 == 0 {
				err := rt.Start(name)
				_, already := running[name]
				sum := total(running)
				switch {
				case already && err == nil:
					return false // double start must fail
				case !already && sum+size <= budget && err != nil:
					return false // should have fit
				case !already && sum+size > budget && err == nil:
					return false // overcommitted
				}
				if err == nil {
					running[name] = size
				}
			} else {
				err := rt.Stop(name)
				_, was := running[name]
				if was != (err == nil) {
					return false
				}
				delete(running, name)
			}
			if rt.MemoryUsedMB() != total(running) {
				return false
			}
			if rt.MemoryUsedMB() > budget {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func total(m map[string]int) int {
	var t int
	for _, v := range m {
		t += v
	}
	return t
}
