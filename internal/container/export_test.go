package container

// The codec's entry points, for the external tests that hold them to
// encoding/json.
var (
	EncodeCheckpoint = encodeCheckpoint
	DecodeCheckpoint = decodeCheckpoint
)
