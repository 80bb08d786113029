package obs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRenderTimeline(t *testing.T) {
	var buf bytes.Buffer
	RenderTimeline(&buf, goldenEvents())
	out := buf.String()
	for _, want := range []string{
		"timeline: 4 events",
		"-- lane recovery",
		"-- lane redo-worker-00",
		"restart",
		"analysis",
		"chain",
		"{analyzed_records=18 dirty_objects=5}",
		"-- phase totals",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTimelineEmpty(t *testing.T) {
	var buf bytes.Buffer
	RenderTimeline(&buf, nil)
	if !strings.Contains(buf.String(), "no trace events") {
		t.Errorf("empty timeline = %q", buf.String())
	}
}

// hostileTrace spans ≈3·10¹¹ s: scaling its last offset onto the gutter
// overflows int64 arithmetic.
const hostileTrace = `{"traceEvents":[{"name":"a","ph":"i","ts":0,"pid":1,"tid":1},{"name":"b","ph":"i","ts":300000000000000,"pid":1,"tid":1}]}`

func TestRenderTimelineExtremeTimestamps(t *testing.T) {
	for _, tc := range []struct {
		name, trace string
		want        string // a bar the rendering must contain
	}{
		{"huge span", hostileTrace, "|" + strings.Repeat(" ", 31) + "!|"},
		{"negative and absurd durations",
			`{"traceEvents":[{"name":"a","ph":"X","ts":5,"dur":-9e18,"pid":1,"tid":1},` +
				`{"name":"b","ph":"X","ts":1e300,"dur":1e300,"pid":1,"tid":1}]}`,
			"|="},
	} {
		evs, err := ReadChromeTrace(strings.NewReader(tc.trace))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var buf bytes.Buffer
		RenderTimeline(&buf, evs)
		out := buf.String()
		bars := 0
		for _, line := range strings.Split(out, "\n") {
			i := strings.IndexByte(line, '|')
			if i < 0 {
				continue
			}
			if j := strings.IndexByte(line[i+1:], '|'); j != 32 {
				t.Errorf("%s: bar is %d columns, want 32: %q", tc.name, j, line)
			}
			bars++
		}
		if bars != 2 || !strings.Contains(out, tc.want) {
			t.Errorf("%s: want 2 bars including %q:\n%s", tc.name, tc.want, out)
		}
	}
}

// FuzzRenderTimeline: any input ReadChromeTrace accepts must render
// without panicking.
func FuzzRenderTimeline(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "chrome_trace.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(hostileTrace))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadChromeTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		RenderTimeline(io.Discard, evs)
	})
}
