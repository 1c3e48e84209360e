package trace

import (
	"bytes"
	"compress/gzip"
	"os"
	"strings"
	"testing"
)

// TestGoldenRecordingV1 pins the recording codec against a fixture
// written by an earlier build: a certified, cut-strengthened knapsack
// solve carrying node, inc, cut, cert and ftr lines. The fixture must
// still decode, and re-encoding the decoded value must reproduce its
// plain NDJSON line for line — old .rec.gz files stay readable and the
// writer's format does not move.
func TestGoldenRecordingV1(t *testing.T) {
	raw, err := os.ReadFile("testdata/v1.rec.gz")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := DecodeRecording(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := want.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := rec.Encode(&got, false); err != nil {
		t.Fatal(err)
	}
	wl := strings.Split(strings.TrimSuffix(want.String(), "\n"), "\n")
	gl := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	for _, rk := range []string{"node", "inc", "cut", "cert", "ftr"} {
		if !strings.Contains(want.String(), `{"rk":"`+rk+`"`) {
			t.Fatalf("fixture has no %q line", rk)
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("re-encoded %d lines, fixture has %d", len(gl), len(wl))
	}
	for i := range wl {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs:\nfixture: %s\nencoded: %s", i+1, wl[i], gl[i])
		}
	}
}
