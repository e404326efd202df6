package container_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"androne/internal/cloud"
	"androne/internal/container"
)

// codecCases are checkpoints whose encoding exercises every branch of
// encoding/json's output the codec must reproduce.
func codecCases() map[string]container.Checkpoint {
	lim := container.Limits{MemoryMB: 185, CPUShares: 512}
	lengths := make(map[string][]byte)
	for n := 0; n <= 48; n++ {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(n*31 + i*97)
		}
		lengths[fmt.Sprintf("/len/%02d", n)] = b
	}
	return map[string]container.Checkpoint{
		"every length": {Name: "vd", ImageName: "img", Upper: lengths},
		"nil upper":    {Name: "vd", ImageName: "img", Limits: lim},
		"empty upper":  {Name: "vd", ImageName: "img", Upper: map[string][]byte{}},
		"files": {Name: "vd", ImageName: "androne/minimal-android", Limits: lim, Upper: map[string][]byte{
			"/data/app/x":   []byte("apk"),
			"/.wh./etc/ho":  nil,
			"/empty":        {},
			"/sdcard/one":   {0xFF},
			"/sdcard/two":   {0xFF, 0xFE},
			"/sdcard/three": {0xFF, 0xFE, 0xFD},
		}},
		"escapes": {Name: "a\"b\\c<d>e&f\x00\x1f\x7f\b\f\n\r\t", ImageName: "caf\u00e9 \u2028\u2029 \ufffd",
			Limits: container.Limits{MemoryMB: -1 << 63, CPUShares: 1<<63 - 1},
			Upper:  map[string][]byte{"/\u65e5\u672c": []byte("x"), "/<script>": nil}},
		"invalid utf-8": {Name: "bad\xff\xfe", ImageName: "\xc0", Upper: map[string][]byte{"/p\x80": []byte("x")}},
	}
}

func TestEncodeCheckpointMatchesJSON(t *testing.T) {
	for name, cp := range codecCases() {
		want, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		if got := container.EncodeCheckpoint(&cp); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, want)
		}
	}
}

func TestDecodeCheckpointMatchesJSON(t *testing.T) {
	for name, cp := range codecCases() {
		if name == "invalid utf-8" {
			continue // not a fixed point; see TestDecodeCheckpointRejectsNonCanonical
		}
		enc := container.EncodeCheckpoint(&cp)
		got, err := container.DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var want container.Checkpoint
		if err := json.Unmarshal(enc, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, json.Unmarshal %+v", name, got, want)
		}
	}
}

// TestDecodeCheckpointRejectsNonCanonical: valid JSON that encoding/json
// would read, but that json.Marshal never writes, is refused — the
// decoder accepts exactly the encoder's image.
func TestDecodeCheckpointRejectsNonCanonical(t *testing.T) {
	const head = `{"name":"vd","image":"img","limits":{"MemoryMB":1,"CPUShares":0},"upper":`
	docs := map[string]string{
		"whitespace":        `{"name": "vd","image":"img","limits":{"MemoryMB":1,"CPUShares":0},"upper":{}}`,
		"trailing newline":  head + "{}}\n",
		"reordered fields":  `{"image":"img","name":"vd","limits":{"MemoryMB":1,"CPUShares":0},"upper":{}}`,
		"field case":        `{"Name":"vd","image":"img","limits":{"MemoryMB":1,"CPUShares":0},"upper":{}}`,
		"extra field":       `{"name":"vd","image":"img","limits":{"MemoryMB":1,"CPUShares":0},"upper":{},"x":1}`,
		"reordered paths":   head + `{"/b":"","/a":""}}`,
		"duplicate path":    head + `{"/a":"QQ==","/a":"Qg=="}}`,
		"minus zero":        `{"name":"vd","image":"img","limits":{"MemoryMB":-0,"CPUShares":0},"upper":{}}`,
		"leading zero":      `{"name":"vd","image":"img","limits":{"MemoryMB":01,"CPUShares":0},"upper":{}}`,
		"exponent":          `{"name":"vd","image":"img","limits":{"MemoryMB":1e0,"CPUShares":0},"upper":{}}`,
		"needless escape":   `{"name":"v\u0064","image":"img","limits":{"MemoryMB":1,"CPUShares":0},"upper":{}}`,
		"solidus escape":    `{"name":"a\/b","image":"img","limits":{"MemoryMB":1,"CPUShares":0},"upper":{}}`,
		"upper-case hex":    `{"name":"\u003C","image":"img","limits":{"MemoryMB":1,"CPUShares":0},"upper":{}}`,
		"raw html":          `{"name":"<","image":"img","limits":{"MemoryMB":1,"CPUShares":0},"upper":{}}`,
		"raw U+2028":        "{\"name\":\"\u2028\",\"image\":\"img\",\"limits\":{\"MemoryMB\":1,\"CPUShares\":0},\"upper\":{}}",
		"escaped U+FFFD":    `{"name":"\ufffd","image":"img","limits":{"MemoryMB":1,"CPUShares":0},"upper":{}}`,
		"invalid utf-8":     "{\"name\":\"\xff\",\"image\":\"img\",\"limits\":{\"MemoryMB\":1,\"CPUShares\":0},\"upper\":{}}",
		"trailing bits":     head + `{"/a":"QR=="}}`,
		"unpadded base64":   head + `{"/a":"QQ"}}`,
		"escaped base64":    head + `{"/a":"QQ\n=="}}`,
		"url base64":        head + `{"/a":"-_8="}}`,
		"int overflow":      `{"name":"vd","image":"img","limits":{"MemoryMB":9223372036854775808,"CPUShares":0},"upper":{}}`,
		"paths out of sort": head + "{\"/a\ufffe\":\"\",\"/a\ufffd\":\"\"}}",
	}
	for name, doc := range docs {
		if _, err := container.DecodeCheckpoint([]byte(doc)); !errors.Is(err, container.ErrNotCanonical) {
			t.Errorf("%s: err = %v, want ErrNotCanonical", name, err)
		}
	}
	// A container path with invalid UTF-8 encodes lossily (as U+FFFD), so
	// its checkpoint is not a fixed point of decode and encode and must not
	// restore as something else.
	cp := codecCases()["invalid utf-8"]
	if _, err := container.DecodeCheckpoint(container.EncodeCheckpoint(&cp)); !errors.Is(err, container.ErrNotCanonical) {
		t.Errorf("lossy checkpoint: err = %v, want ErrNotCanonical", err)
	}
}

// fuzzUpper builds an upper map from fuzz bytes: 0xFF separates
// alternating paths and contents, content "\x00" is a whiteout, and an
// empty input is a nil map.
func fuzzUpper(files []byte) map[string][]byte {
	if len(files) == 0 {
		return nil
	}
	upper := make(map[string][]byte)
	chunks := bytes.Split(files, []byte{0xFF})
	for i := 0; i < len(chunks); i += 2 {
		var content []byte
		if i+1 < len(chunks) && !bytes.Equal(chunks[i+1], []byte{0}) {
			content = append([]byte{}, chunks[i+1]...)
		}
		upper[string(chunks[i])] = content
	}
	return upper
}

// vdrRoundTrip saves a checkpoint in a fresh VDR and loads it back.
func vdrRoundTrip(t *testing.T, raw []byte) (cloud.Manifest, []byte) {
	t.Helper()
	v := cloud.NewVDR()
	if err := v.Save(cloud.VDREntry{Name: "fz", Owner: "o", Checkpoint: raw}); err != nil {
		t.Fatal(err)
	}
	m, err := v.Manifest("fz")
	if err != nil {
		t.Fatal(err)
	}
	e, err := v.Load("fz")
	if err != nil {
		t.Fatal(err)
	}
	return m, e.Checkpoint
}

// FuzzCheckpointCodec holds the codec to encoding/json: the encoder writes
// json.Marshal's bytes; on every encoder output the decoder agrees with
// json.Unmarshal, and it refuses exactly the outputs that are not fixed
// points of decode and encode (lossy invalid UTF-8); arbitrary input never
// panics, and whatever the decoder accepts re-encodes to the same bytes;
// and the VDR's layer split and rebuild is the identity.
func FuzzCheckpointCodec(f *testing.F) {
	f.Add("vd", "androne/minimal-android", 185, 0, []byte("/data/app/x\xffapk\xff/sdcard/f\xff\x00\xff/e\xff"), []byte(`{"name":"vd"}`))
	f.Add("a<b>&\"\\\n\u2028", "\xff", -1, 1<<40, []byte{}, []byte(`{"name":"vd","image":"img","limits":{"MemoryMB":1,"CPUShares":0},"upper":{"/a":"QQ=="}}`))
	f.Fuzz(func(t *testing.T, name, image string, mem, cpu int, files, raw []byte) {
		cp := container.Checkpoint{Name: name, ImageName: image,
			Limits: container.Limits{MemoryMB: mem, CPUShares: cpu}, Upper: fuzzUpper(files)}
		enc := container.EncodeCheckpoint(&cp)
		want, err := json.Marshal(cp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("encoder differs from json.Marshal:\n got %q\nwant %q", enc, want)
		}
		var ref container.Checkpoint
		if err := json.Unmarshal(enc, &ref); err != nil {
			t.Fatal(err)
		}
		again, _ := json.Marshal(ref)
		fixed := bytes.Equal(again, enc)
		got, err := container.DecodeCheckpoint(enc)
		if fixed != (err == nil) {
			t.Fatalf("decoder err %v on %q, which is a fixed point: %v", err, enc, fixed)
		}
		if err == nil && !reflect.DeepEqual(got, ref) {
			t.Fatalf("decoded %+v, json.Unmarshal %+v", got, ref)
		}

		dec, err := container.DecodeCheckpoint(raw)
		if _, serr := container.ScanCheckpoint(raw); (serr == nil) != (err == nil) {
			t.Fatalf("scan err %v, decode err %v", serr, err)
		}
		if err == nil {
			if re := container.EncodeCheckpoint(&dec); !bytes.Equal(re, raw) {
				t.Fatalf("accepted %q, re-encodes as %q", raw, re)
			}
			var ref container.Checkpoint
			if err := json.Unmarshal(raw, &ref); err != nil || !reflect.DeepEqual(dec, ref) {
				t.Fatalf("accepted %q: decoded %+v, json.Unmarshal %+v (%v)", raw, dec, ref, err)
			}
		}

		for _, doc := range [][]byte{enc, raw} {
			if len(doc) == 0 {
				continue
			}
			m, back := vdrRoundTrip(t, doc)
			if !bytes.Equal(back, doc) {
				t.Fatalf("VDR round trip of %q gave %q", doc, back)
			}
			cr, err := container.ScanCheckpoint(doc)
			split := err == nil && !cr.NullUpper
			if opaque := m.Layers[len(m.Layers)-1].Kind == cloud.LayerOpaque; opaque == split {
				t.Fatalf("%q: opaque layer %v, canonical with an upper object %v", doc, opaque, split)
			}
		}
	})
}

// benchCheckpoint is a 1 MiB container state: 16 files of 64 KiB.
func benchCheckpoint() container.Checkpoint {
	upper := make(map[string][]byte)
	for k := 0; k < 16; k++ {
		b := make([]byte, 64<<10)
		for i := range b {
			b[i] = byte(i*7 + k)
		}
		upper[fmt.Sprintf("/sdcard/frames/slot-%02d", k)] = b
	}
	upper["/data/androne/progress.json"] = []byte(`{"started":true}`)
	return container.Checkpoint{Name: "bench", ImageName: "androne/minimal-android",
		Limits: container.Limits{MemoryMB: 185}, Upper: upper}
}

// benchSink keeps the benchmarked encoder's result live.
var benchSink []byte

// BenchmarkCheckpointCodec measures the codec against encoding/json on a
// 1 MiB state; throughput is in checkpoint bytes.
func BenchmarkCheckpointCodec(b *testing.B) {
	cp := benchCheckpoint()
	enc := container.EncodeCheckpoint(&cp)
	run := func(name string, fn func() error) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("encode", func() error { benchSink = container.EncodeCheckpoint(&cp); return nil })
	run("decode", func() error { _, err := container.DecodeCheckpoint(enc); return err })
	run("scan", func() error { _, err := container.ScanCheckpoint(enc); return err })
	run("json-marshal", func() error { _, err := json.Marshal(cp); return err })
	run("json-unmarshal", func() error { var out container.Checkpoint; return json.Unmarshal(enc, &out) })
}
