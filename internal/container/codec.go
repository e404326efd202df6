package container

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"unicode/utf8"
)

// The checkpoint's wire form is the JSON that encoding/json writes for a
// Checkpoint: fields in declaration order, upper paths in sorted order,
// file contents as padded standard base64 and whiteouts as null. This file
// writes and reads that form by hand. The encoder's output equals
// json.Marshal's byte for byte; the decoder accepts exactly the documents
// the encoder can produce and rejects everything else (whitespace,
// reordered or duplicate keys, non-canonical escapes or base64), which is
// what lets the VDR cut a checkpoint into layers at record boundaries
// without decoding file contents. FuzzCheckpointCodec pins both halves
// against encoding/json.

// ErrNotCanonical is returned for checkpoint bytes that are not the
// canonical encoding of a Checkpoint. Valid JSON in any other form is
// rejected too: re-encoding it would not give back the same bytes.
var ErrNotCanonical = errors.New("container: checkpoint is not canonical JSON")

// FileRecord is one entry of a checkpoint's upper object as it sits in the
// canonical JSON: `"<path>":"<base64>"`, or `"<path>":null` for a whiteout.
type FileRecord struct {
	Path string // decoded
	JSON []byte // the record's bytes, aliasing the scanned input
	val  int    // offset of the value within JSON
}

// CheckpointRecords is a canonical checkpoint cut at its record
// boundaries, with the file contents still encoded.
type CheckpointRecords struct {
	Name      string
	ImageName string
	Limits    Limits
	// Head is the `"image":…,"limits":{…}` span between the name and the
	// upper object, aliasing the scanned input.
	Head []byte
	// Files are the upper object's records in path order.
	Files []FileRecord
	// NullUpper is set when the upper object is null (a nil map).
	NullUpper bool
}

// encodeCheckpoint returns json.Marshal(cp), byte for byte.
func encodeCheckpoint(cp *Checkpoint) []byte {
	return appendCheckpoint(nil, cp.Name, cp.ImageName, cp.Limits, cp.Upper, sortedPaths(cp.Upper))
}

// sortedPaths returns upper's paths in the order json.Marshal writes them.
func sortedPaths(upper map[string][]byte) []string {
	paths := make([]string, 0, len(upper))
	for p := range upper {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// appendCheckpoint encodes a checkpoint whose upper paths are given in
// sorted order; a nil upper encodes as null.
func appendCheckpoint(dst []byte, name, image string, lim Limits, upper map[string][]byte, paths []string) []byte {
	size := len(name) + len(image) + 96
	for _, p := range paths {
		size += len(p) + 8 + base64.StdEncoding.EncodedLen(len(upper[p]))
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, `{"name":`...)
	dst = appendString(dst, name)
	dst = append(dst, `,"image":`...)
	dst = appendString(dst, image)
	dst = append(dst, `,"limits":{"MemoryMB":`...)
	dst = strconv.AppendInt(dst, int64(lim.MemoryMB), 10)
	dst = append(dst, `,"CPUShares":`...)
	dst = strconv.AppendInt(dst, int64(lim.CPUShares), 10)
	dst = append(dst, `},"upper":`...)
	if upper == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '{')
		for i, p := range paths {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, p)
			dst = append(dst, ':')
			if b := upper[p]; b == nil {
				dst = append(dst, "null"...)
			} else {
				dst = append(dst, '"')
				dst = appendBase64(dst, b)
				dst = append(dst, '"')
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

const hexDigits = "0123456789abcdef"

var strictBase64 = base64.StdEncoding.Strict()

// appendString appends s as a JSON string escaped exactly as encoding/json
// escapes it with HTML escaping on: quotes, backslashes and control
// characters, <, > and &, U+2028 and U+2029, and each byte of invalid
// UTF-8 as \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if plain[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// plain marks the ASCII bytes a JSON string carries unescaped: printable
// characters other than ", \, <, > and &.
var plain = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

const b64Alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

// b64Pairs maps 12 bits to the two base64 characters that encode them,
// first character in the low byte.
var b64Pairs = func() (t [4096]uint16) {
	for v := range t {
		t[v] = uint16(b64Alphabet[v>>6]) | uint16(b64Alphabet[v&0x3F])<<8
	}
	return t
}()

// appendBase64 appends src as base64.StdEncoding encodes it. The main loop
// turns six input bytes into eight characters with one 8-byte load, four
// 12-bit table lookups and one 8-byte store; base64.Encoding.Encode does a
// lookup and a store per character.
func appendBase64(dst, src []byte) []byte {
	n := base64.StdEncoding.EncodedLen(len(src))
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	si, di := 0, 0
	for ; len(src)-si >= 14 && len(out)-di >= 16; si, di = si+12, di+16 {
		in := src[si : si+14]
		o := out[di : di+16]
		v := binary.BigEndian.Uint64(in[0:8])
		w := binary.BigEndian.Uint64(in[6:14])
		binary.LittleEndian.PutUint64(o[0:8], uint64(b64Pairs[v>>52])|
			uint64(b64Pairs[v>>40&0xFFF])<<16|
			uint64(b64Pairs[v>>28&0xFFF])<<32|
			uint64(b64Pairs[v>>16&0xFFF])<<48)
		binary.LittleEndian.PutUint64(o[8:16], uint64(b64Pairs[w>>52])|
			uint64(b64Pairs[w>>40&0xFFF])<<16|
			uint64(b64Pairs[w>>28&0xFFF])<<32|
			uint64(b64Pairs[w>>16&0xFFF])<<48)
	}
	base64.StdEncoding.Encode(out[di:], src[si:])
	return dst[:len(dst)+n]
}

// b64 maps a standard-alphabet base64 character to its 6-bit value; every
// other byte maps to 0xFF.
var b64 = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xFF
	}
	for i := 0; i < len(b64Alphabet); i++ {
		t[b64Alphabet[i]] = byte(i)
	}
	return t
}()

// canonicalBase64 reports whether s is what base64.StdEncoding writes for
// some input: whole padded quanta of the standard alphabet with zero
// trailing bits.
func canonicalBase64(s []byte) bool {
	n := len(s)
	if n%4 != 0 {
		return false
	}
	if n == 0 {
		return true
	}
	pad := 0
	if s[n-1] == '=' {
		pad = 1
		if s[n-2] == '=' {
			pad = 2
		}
	}
	// Invalid bytes map to 0xFF, so a high bit anywhere in the OR of all
	// the values rejects the lot. Four accumulators keep the loop off a
	// single dependency chain.
	body := s[:n-pad]
	var a0, a1, a2, a3 byte
	for len(body) >= 8 {
		a0 |= b64[body[0]] | b64[body[4]]
		a1 |= b64[body[1]] | b64[body[5]]
		a2 |= b64[body[2]] | b64[body[6]]
		a3 |= b64[body[3]] | b64[body[7]]
		body = body[8:]
	}
	for _, c := range body {
		a0 |= b64[c]
	}
	if (a0|a1|a2|a3)&0xC0 != 0 {
		return false
	}
	switch last := b64[s[n-pad-1]]; pad {
	case 1:
		return last&0x03 == 0
	case 2:
		return last&0x0F == 0
	}
	return true
}

// scanner reads canonical checkpoint JSON left to right. str, integer and
// record consume one token or report false and consume nothing.
type scanner struct {
	data []byte
	i    int
	// checkValues makes record check that each base64 value is
	// canonical; without it only the value's closing quote is found.
	checkValues bool
}

func (s *scanner) fail(what string) error {
	return fmt.Errorf("%w: %s at byte %d", ErrNotCanonical, what, s.i)
}

// lit consumes the literal l.
func (s *scanner) lit(l string) bool {
	if len(s.data)-s.i >= len(l) && string(s.data[s.i:s.i+len(l)]) == l {
		s.i += len(l)
		return true
	}
	return false
}

// str consumes a JSON string in encoding/json's escaping and returns it
// decoded.
func (s *scanner) str() (string, bool) {
	d := s.data
	if s.i >= len(d) || d[s.i] != '"' {
		return "", false
	}
	start := s.i + 1
	end := start
	for end < len(d) && d[end] < utf8.RuneSelf && plain[d[end]] {
		end++
	}
	if end < len(d) && d[end] == '"' {
		s.i = end + 1
		return string(d[start:end]), true
	}
	// Escapes or non-ASCII: find the closing quote, decode, and accept
	// only when the decoded string encodes back to this very span.
	for end < len(d) && d[end] != '"' {
		if d[end] == '\\' {
			end++
		}
		end++
	}
	if end >= len(d) {
		return "", false
	}
	dec, ok := unescape(d[start:end])
	if !ok || string(appendString(nil, dec)) != string(d[s.i:end+1]) {
		return "", false
	}
	s.i = end + 1
	return dec, true
}

// unescape decodes the escapes a canonical string can carry. It checks no
// more than it must: str re-encodes the result to reject the rest.
func unescape(raw []byte) (string, bool) {
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c != '\\' {
			out = append(out, c)
			continue
		}
		i++
		if i >= len(raw) {
			return "", false
		}
		switch raw[i] {
		case '"', '\\':
			out = append(out, raw[i])
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			if i+4 >= len(raw) {
				return "", false
			}
			r, err := strconv.ParseUint(string(raw[i+1:i+5]), 16, 16)
			if err != nil || utf8.RuneLen(rune(r)) < 0 {
				return "", false
			}
			out = utf8.AppendRune(out, rune(r))
			i += 4
		default:
			return "", false
		}
	}
	return string(out), true
}

// integer consumes an integer as strconv writes it: no sign but a minus,
// no leading zeros, no -0, and within the range of int.
func (s *scanner) integer() (int, bool) {
	d := s.data
	i := s.i
	if i < len(d) && d[i] == '-' {
		i++
	}
	digits := i
	for i < len(d) && d[i] >= '0' && d[i] <= '9' {
		i++
	}
	if i == digits || (d[digits] == '0' && (i-digits > 1 || digits > s.i)) {
		return 0, false
	}
	v, err := strconv.ParseInt(string(d[s.i:i]), 10, strconv.IntSize)
	if err != nil {
		return 0, false
	}
	s.i = i
	return int(v), true
}

// record consumes one `"<path>":<value>` entry of an upper object.
func (s *scanner) record() (FileRecord, bool) {
	start := s.i
	path, ok := s.str()
	if !ok || !s.lit(":") {
		s.i = start
		return FileRecord{}, false
	}
	val := s.i - start
	if !s.lit("null") {
		d := s.data
		if s.i >= len(d) || d[s.i] != '"' {
			s.i = start
			return FileRecord{}, false
		}
		end := bytes.IndexByte(d[s.i+1:], '"')
		if end < 0 || (s.checkValues && !canonicalBase64(d[s.i+1:s.i+1+end])) {
			s.i = start
			return FileRecord{}, false
		}
		s.i += end + 2
	}
	return FileRecord{Path: path, JSON: s.data[start:s.i:s.i], val: val}, true
}

// files consumes an upper object: records in strictly increasing path
// order.
func (s *scanner) files() ([]FileRecord, error) {
	if !s.lit("{") {
		return nil, s.fail("want upper object")
	}
	var recs []FileRecord
	if s.lit("}") {
		return recs, nil
	}
	for {
		r, ok := s.record()
		if !ok {
			return nil, s.fail("bad upper record")
		}
		if n := len(recs); n > 0 && r.Path <= recs[n-1].Path {
			return nil, s.fail("upper paths out of order")
		}
		recs = append(recs, r)
		if s.lit("}") {
			return recs, nil
		}
		if !s.lit(",") {
			return nil, s.fail("want , or }")
		}
	}
}

// head consumes the `"image":…,"limits":{…}` span.
func (s *scanner) head(cr *CheckpointRecords) error {
	start := s.i
	var ok bool
	if !s.lit(`"image":`) {
		return s.fail("want image")
	}
	if cr.ImageName, ok = s.str(); !ok {
		return s.fail("bad image")
	}
	if !s.lit(`,"limits":{"MemoryMB":`) {
		return s.fail("want limits")
	}
	if cr.Limits.MemoryMB, ok = s.integer(); !ok {
		return s.fail("bad MemoryMB")
	}
	if !s.lit(`,"CPUShares":`) {
		return s.fail("want CPUShares")
	}
	if cr.Limits.CPUShares, ok = s.integer(); !ok {
		return s.fail("bad CPUShares")
	}
	if !s.lit("}") {
		return s.fail("want end of limits")
	}
	cr.Head = s.data[start:s.i:s.i]
	return nil
}

// ScanCheckpoint cuts canonical checkpoint JSON into its records without
// decoding any file contents. It accepts exactly the checkpoints
// Runtime.Restore can decode.
func ScanCheckpoint(data []byte) (CheckpointRecords, error) {
	return scanCheckpoint(data, true)
}

func scanCheckpoint(data []byte, checkValues bool) (CheckpointRecords, error) {
	var cr CheckpointRecords
	s := scanner{data: data, checkValues: checkValues}
	var ok bool
	if !s.lit(`{"name":`) {
		return cr, s.fail("want name")
	}
	if cr.Name, ok = s.str(); !ok {
		return cr, s.fail("bad name")
	}
	if !s.lit(",") {
		return cr, s.fail("want ,")
	}
	if err := s.head(&cr); err != nil {
		return cr, err
	}
	if !s.lit(`,"upper":`) {
		return cr, s.fail("want upper")
	}
	if s.lit("null") {
		cr.NullUpper = true
	} else {
		files, err := s.files()
		if err != nil {
			return cr, err
		}
		cr.Files = files
	}
	if !s.lit("}") || s.i != len(data) {
		return cr, s.fail("want end of checkpoint")
	}
	return cr, nil
}

// ScanFiles cuts an upper object — a JSON object of path → base64
// contents as json.Marshal writes a map[string][]byte — into its records.
// It checks the object's structure, its path strings and their order, but
// not the base64 contents: it reads back objects cut from a checkpoint
// that ScanCheckpoint accepted, and a checkpoint reassembled from them is
// checked in full when it is decoded.
func ScanFiles(obj []byte) ([]FileRecord, error) {
	s := scanner{data: obj}
	recs, err := s.files()
	if err != nil {
		return nil, err
	}
	if s.i != len(obj) {
		return nil, s.fail("trailing bytes")
	}
	return recs, nil
}

// AppendFiles appends recs, which must be in increasing path order, as an
// upper object: json.Marshal of the map they encode.
func AppendFiles(dst []byte, recs []FileRecord) []byte {
	size := 2
	for _, r := range recs {
		size += len(r.JSON) + 1
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, '{')
	for i, r := range recs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, r.JSON...)
	}
	return append(dst, '}')
}

// AssembleCheckpoint rebuilds canonical checkpoint JSON from a container
// name, a Head span and record lists that are each in path order. The
// lists are merged by path; a path in two lists is an error.
func AssembleCheckpoint(name string, head []byte, parts ...[]FileRecord) ([]byte, error) {
	var cr CheckpointRecords
	hs := scanner{data: head}
	if err := hs.head(&cr); err != nil {
		return nil, err
	}
	if hs.i != len(head) {
		return nil, hs.fail("trailing bytes after limits")
	}
	size := len(name) + len(head) + 32
	for _, p := range parts {
		for _, r := range p {
			size += len(r.JSON) + 1
		}
	}
	out := make([]byte, 0, size)
	out = append(out, `{"name":`...)
	out = appendString(out, name)
	out = append(out, ',')
	out = append(out, head...)
	out = append(out, `,"upper":{`...)
	idx := make([]int, len(parts))
	prev, first := "", true
	for {
		next := -1
		for k, p := range parts {
			if idx[k] < len(p) && (next < 0 || p[idx[k]].Path < parts[next][idx[next]].Path) {
				next = k
			}
		}
		if next < 0 {
			break
		}
		r := parts[next][idx[next]]
		idx[next]++
		if !first && r.Path <= prev {
			return nil, fmt.Errorf("%w: path %q in two layers or out of order", ErrNotCanonical, r.Path)
		}
		if !first {
			out = append(out, ',')
		}
		out = append(out, r.JSON...)
		prev, first = r.Path, false
	}
	return append(out, "}}"...), nil
}

// decodeCheckpoint parses canonical checkpoint JSON. Its result equals
// json.Unmarshal's on every document it accepts; it returns
// ErrNotCanonical for everything else.
func decodeCheckpoint(data []byte) (Checkpoint, error) {
	// The values are checked as they are decoded: the strict decoder
	// refuses bad characters, bad padding and non-zero trailing bits, and
	// the length check refuses the line breaks it would skip.
	cr, err := scanCheckpoint(data, false)
	if err != nil {
		return Checkpoint{}, err
	}
	cp := Checkpoint{Name: cr.Name, ImageName: cr.ImageName, Limits: cr.Limits}
	if cr.NullUpper {
		return cp, nil
	}
	cp.Upper = make(map[string][]byte, len(cr.Files))
	for _, r := range cr.Files {
		v := r.JSON[r.val:]
		if v[0] == 'n' {
			cp.Upper[r.Path] = nil
			continue
		}
		enc := v[1 : len(v)-1]
		b := make([]byte, base64.StdEncoding.DecodedLen(len(enc)))
		n, err := strictBase64.Decode(b, enc)
		if err != nil || len(enc)%4 != 0 || n != len(b)-bytes.Count(enc[max(len(enc)-2, 0):], []byte("=")) {
			return Checkpoint{}, fmt.Errorf("%w: base64 contents of %q", ErrNotCanonical, r.Path)
		}
		cp.Upper[r.Path] = b[:n]
	}
	return cp, nil
}
