package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"logicallog/internal/core"
	"logicallog/internal/wal"
	"logicallog/internal/workload"
	"logicallog/internal/writegraph"
)

var updateInstallTraces = flag.Bool("install-trace.update", false, "rewrite testdata/install_trace_digests.txt from this build")

const installTracePath = "testdata/install_trace_digests.txt"

// TestInstallTraceDigests pins the order in which the cache manager installs
// write-graph nodes — which is how the write graph's shape reaches the
// stable store.  For every explorer configuration, the default script and
// each scenario mix run fault-free, crash, recover and drain; every
// installed node (id, operation LSNs, vars, Notx) is folded, in install
// order, into a sha256.  The digests on file were generated by this test
// against the write graph as it stood before its upkeep was made
// incremental; regenerate with -install-trace.update only for a deliberate
// change to install order.
func TestInstallTraceDigests(t *testing.T) {
	t.Parallel()
	got := map[string]string{}
	for _, cfg := range ExplorerConfigs() {
		for _, mix := range append([]string{"default"}, workload.MixNames()...) {
			got[cfg.Name+"/"+mix] = installTraceDigest(t, cfg, mix)
		}
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if *updateInstallTraces {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll(filepath.Dir(installTracePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(installTracePath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(installTracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed digest line %q", sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%d install-trace digests on file, %d computed", len(want), len(got))
	}
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("%s: install trace digest %s, on file %s", name, got[name], want[name])
		}
	}
}

// installTraceDigest runs one script fault-free on a fresh engine, crashes,
// recovers and drains it, and returns the digest of every install.
func installTraceDigest(t *testing.T, cfg NamedConfig, mix string) string {
	t.Helper()
	tg := Target{Config: cfg}
	if mix != "default" {
		tg.Mix = mix
	}
	script, _, err := tg.workload()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	opts := tg.options()
	opts.LogDevice = wal.NewMemDevice()
	opts.RedoWorkers = 1
	opts.InstallTrace = func(v *writegraph.NodeView) { foldInstall(h, v) }
	eng, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := script(eng, &runRecorder{}, nil); err != nil {
		t.Fatalf("%s/%s: %v", cfg.Name, mix, err)
	}
	eng.Crash()
	if _, err := eng.Recover(); err != nil {
		t.Fatalf("%s/%s: recover: %v", cfg.Name, mix, err)
	}
	if err := eng.FlushAll(); err != nil {
		t.Fatalf("%s/%s: drain: %v", cfg.Name, mix, err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func foldInstall(h hash.Hash, v *writegraph.NodeView) {
	fmt.Fprintf(h, "%d:", v.ID)
	for _, o := range v.Ops {
		fmt.Fprintf(h, "%d,", o.LSN)
	}
	fmt.Fprintf(h, "%q%q;", v.Vars, v.Notx)
}
