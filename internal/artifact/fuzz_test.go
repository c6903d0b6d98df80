package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
)

// FuzzDecode feeds hostile bytes to the artifact trust boundary: the
// files rcache reads back from its disk store.  Each input is tried
// twice: as raw file bytes, and as a payload framed under a valid header,
// so mutations get past the checksum into the JSON and table restoring
// code (a checksum detects rot, not a crafted file).  Decode must fail or
// yield an artifact whose key is its own content address; Target must
// fail or yield a frozen target.  Neither may panic.
func FuzzDecode(f *testing.F) {
	for _, model := range []string{"demo", "tms320c25"} {
		tg, mdl := retarget(f, model)
		a, err := New(tg, mdl, core.RetargetOptions{})
		if err != nil {
			f.Fatal(err)
		}
		data, err := a.Encode()
		if err != nil {
			f.Fatal(err)
		}
		for _, n := range []int{len(data), len(data) - 1, len(data) / 2, 1, 0} {
			f.Add(data[:n])
		}
		f.Add(data[bytes.IndexByte(data, '\n')+1:]) // the bare payload
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		checkDecode(t, frame(data))
	})
}

// frame puts a valid header in front of payload.
func frame(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	return append([]byte(fmt.Sprintf("%s %d %s\n", magic, FormatVersion, hex.EncodeToString(sum[:]))), payload...)
}

func checkDecode(t *testing.T, data []byte) {
	a, err := Decode(data)
	if err != nil {
		return
	}
	if a.Key != contentKey(a.Options, a.Model) {
		t.Fatalf("decoded artifact %.12s… is not its own content address", a.Key)
	}
	tg, err := a.Target()
	if err != nil {
		return
	}
	if !tg.Frozen() {
		t.Fatal("decoded target is not frozen")
	}
}
