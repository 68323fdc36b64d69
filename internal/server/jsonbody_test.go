package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

// FuzzAppendJSON holds the two appended bodies to json.Marshal's bytes: for
// any names, specs, distances and floats the appender writes exactly what
// json.Marshal writes, and it declines exactly when json.Marshal fails (a
// NaN or ±Inf float). Distances are read four bytes at a time, floats eight
// bytes at a time as IEEE bits, so every int32 and every float64 — the
// 1e-6 and 1e21 format boundaries, subnormals, −0, NaN and ±Inf — is
// reachable; the seeds start at those values and at names holding HTML
// characters, U+2028 and invalid UTF-8.
func FuzzAppendJSON(f *testing.F) {
	floats := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	ints := func(xs ...int32) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint32(b, uint32(x))
		}
		return b
	}
	f.Add("g", "", ints(0, 1, 9, 10, -1, 2147483647, -2147483648), false, int32(0), 3, floats(0.5, 0.25), 1.5, 0.99)
	f.Add("g", "uniform:p=0.5", []byte{}, false, int32(7), 0, []byte{}, 0.0, 0.0)
	f.Add("", "", []byte(nil), true, int32(-1), -5, []byte(nil), -2.0, 1.0)
	f.Add("a<b>&c", "x y z", ints(3), false, int32(1), 1, floats(1e-6, 9.999999999999999e-7, 1e21, 9.99999999999999e20), 1e-7, 1e22)
	f.Add("\xff\xfe", "tab\there\"quote\\", ints(), false, int32(2), 2, floats(5e-324, 2.2250738585072014e-308, -0.0, -1e-300), math.Copysign(0, -1), -1e-9)
	f.Add("n", "", ints(1), false, int32(0), 1, floats(math.NaN()), 0.0, 0.0)
	f.Add("n", "", ints(1), false, int32(0), 1, floats(1), math.Inf(1), 0.0)
	f.Add("n", "", ints(1), false, int32(0), 1, floats(1), 0.0, math.Inf(-1))
	f.Add("\x00\x1f\x7f", "é", ints(123456), false, int32(0), 1, floats(math.Inf(-1), 1), 0.0, 0.0)
	f.Fuzz(func(t *testing.T, name, spec string, distBytes []byte, nilDist bool, root int32, reached int, floatBytes []byte, slope, r2 float64) {
		var dist []int32
		var deg []float64
		if !nilDist {
			dist = make([]int32, 0, len(distBytes)/4)
			for i := 0; i+4 <= len(distBytes); i += 4 {
				dist = append(dist, int32(binary.LittleEndian.Uint32(distBytes[i:])))
			}
			deg = make([]float64, 0, len(floatBytes)/8)
			for i := 0; i+8 <= len(floatBytes); i += 8 {
				deg = append(deg, math.Float64frombits(binary.LittleEndian.Uint64(floatBytes[i:])))
			}
		}
		ecc := int32(0)
		if len(dist) > 0 {
			ecc = dist[0]
		}
		checkAppended(t, &BFSResponse{Graph: name, Spec: spec, Root: root, Reached: reached, Ecc: ecc, Dist: dist})
		checkAppended(t, &DegreesResponse{Graph: name, Spec: spec, Dist: deg, Slope: slope, R2: r2})
	})
}

func checkAppended(t *testing.T, v interface{ appendJSON([]byte) ([]byte, bool) }) {
	t.Helper()
	want, err := json.Marshal(v)
	got, ok := v.appendJSON(nil)
	switch {
	case err != nil && ok:
		t.Fatalf("%T: json.Marshal fails (%v), the appender wrote %q", v, err, got)
	case err == nil && !ok:
		t.Fatalf("%T: the appender declined a body json.Marshal writes as %q", v, want)
	case err == nil && !bytes.Equal(got, want):
		t.Fatalf("%T: appended\n%q\njson.Marshal\n%q", v, got, want)
	}
}
