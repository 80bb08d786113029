package harness

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func runExp(t *testing.T, id string) *Table {
	t.Helper()
	exp, ok := Find(id)
	if !ok {
		t.Fatalf("experiment %s not found", id)
	}
	tbl, err := exp.Run()
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tbl.Rows) == 0 || len(tbl.Columns) == 0 {
		t.Fatalf("%s: empty table", id)
	}
	for _, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			t.Fatalf("%s: ragged row %v", id, row)
		}
	}
	return tbl
}

func cellInt(t *testing.T, tbl *Table, row, col int) int64 {
	t.Helper()
	v, err := strconv.ParseInt(tbl.Rows[row][col], 10, 64)
	if err != nil {
		t.Fatalf("%s cell (%d,%d) = %q not an int", tbl.ID, row, col, tbl.Rows[row][col])
	}
	return v
}

func cellFloat(t *testing.T, tbl *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tbl.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s cell (%d,%d) = %q not a float", tbl.ID, row, col, tbl.Rows[row][col])
	}
	return v
}

// TestE1Shape checks Figure 1's claim: logical cost flat, physiological
// growing, ratio increasing with object size.
func TestE1Shape(t *testing.T) {
	tbl := runExp(t, "E1")
	n := len(tbl.Rows)
	firstLogical := cellInt(t, tbl, 0, 1)
	lastLogical := cellInt(t, tbl, n-1, 1)
	if lastLogical > 4*firstLogical {
		t.Errorf("logical cost not flat: %d -> %d", firstLogical, lastLogical)
	}
	for i := 0; i < n; i++ {
		logical, physio := cellInt(t, tbl, i, 1), cellInt(t, tbl, i, 2)
		if physio <= logical {
			t.Errorf("row %d: physiological (%d) must exceed logical (%d)", i, physio, logical)
		}
	}
	// Ratio grows with object size, reaching >1000x at 1 MiB.
	if r := cellFloat(t, tbl, n-1, 3); r < 1000 {
		t.Errorf("1 MiB ratio = %.1f, want >= 1000", r)
	}
	if r0, rn := cellFloat(t, tbl, 0, 3), cellFloat(t, tbl, n-1, 3); rn <= r0 {
		t.Errorf("ratio must grow with size: %.1f -> %.1f", r0, rn)
	}
}

func TestE2AllVerified(t *testing.T) {
	if testing.Short() {
		t.Skip("E2 runs 200 crash tests")
	}
	tbl := runExp(t, "E2")
	for i := range tbl.Rows {
		if tbl.Rows[i][1] != tbl.Rows[i][2] {
			t.Errorf("config %s: %s/%s verified", tbl.Rows[i][0], tbl.Rows[i][2], tbl.Rows[i][1])
		}
	}
}

// TestE3Shape: rW flush sets bounded by W's; W grows with blind writes.
func TestE3Shape(t *testing.T) {
	tbl := runExp(t, "E3")
	for i := range tbl.Rows {
		wMax, rMax := cellInt(t, tbl, i, 1), cellInt(t, tbl, i, 3)
		wMean, rMean := cellFloat(t, tbl, i, 2), cellFloat(t, tbl, i, 4)
		if rMax > wMax {
			t.Errorf("row %d: rW max %d > W max %d", i, rMax, wMax)
		}
		if rMean > wMean+1e-9 {
			t.Errorf("row %d: rW mean %.2f > W mean %.2f", i, rMean, wMean)
		}
	}
}

// TestE4Shape: Figure 7 under rW needs no multi-object atomic flush; under
// W it does.
func TestE4Shape(t *testing.T) {
	tbl := runExp(t, "E4")
	var fig7W, fig7RW []string
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[0], "Fig7") {
			switch row[1] {
			case "W":
				fig7W = row
			case "rW":
				fig7RW = row
			}
		}
	}
	if fig7W == nil || fig7RW == nil {
		t.Fatal("Figure 7 rows missing")
	}
	if fig7W[4] != "yes" {
		t.Errorf("Figure 7 under W must need an atomic multi-flush: %v", fig7W)
	}
	if fig7RW[4] != "no" {
		t.Errorf("Figure 7 under rW must not need an atomic multi-flush: %v", fig7RW)
	}
}

// TestE5Shape: Section 4's cost claims.  With a size-k set: identity writes
// log k-1 values and write k objects once; flush txns write 2k objects and
// log k values + k+1 log writes; shadows swing a pointer.
func TestE5Shape(t *testing.T) {
	tbl := runExp(t, "E5")
	byKey := map[string][]string{}
	for _, row := range tbl.Rows {
		byKey[row[0]+"/"+row[1]] = row
	}
	for _, k := range []int{2, 4, 8, 16} {
		kk := strconv.Itoa(k)
		id := byKey[kk+"/identity-write"]
		ft := byKey[kk+"/flush-txn"]
		sh := byKey[kk+"/shadow"]
		if id == nil || ft == nil || sh == nil {
			t.Fatalf("missing rows for k=%d", k)
		}
		// Section 4: with a flush transaction "each object in the atomic
		// flush set needs to be written twice" — once to the flush-txn log
		// and once in place — so total device writes are ~2k vs identity's k.
		idWrites, _ := strconv.Atoi(id[2])
		ftWrites, _ := strconv.Atoi(ft[2])
		ftLogWrites, _ := strconv.Atoi(ft[4])
		if ftWrites+ftLogWrites < 2*idWrites {
			t.Errorf("k=%d: flush-txn device writes %d not ~2x identity's %d", k, ftWrites+ftLogWrites, idWrites)
		}
		idBytes, _ := strconv.Atoi(id[3])
		if idBytes != (k-1)*4096 {
			t.Errorf("k=%d: identity writes logged %d bytes, want %d", k, idBytes, (k-1)*4096)
		}
		if ftLogWrites != k+1 {
			t.Errorf("k=%d: flush-txn log writes = %d, want %d", k, ftLogWrites, k+1)
		}
		if swings, _ := strconv.Atoi(sh[5]); swings != 1 {
			t.Errorf("k=%d: shadow pointer swings = %d", k, swings)
		}
	}
}

// TestE6Shape: rSI never redoes more than vSI.
func TestE6Shape(t *testing.T) {
	tbl := runExp(t, "E6")
	for i := 0; i+1 < len(tbl.Rows); i += 2 {
		vsiRow, rsiRow := tbl.Rows[i], tbl.Rows[i+1]
		if vsiRow[1] != "vSI" || rsiRow[1] != "rSI" {
			t.Fatalf("unexpected row order: %v / %v", vsiRow, rsiRow)
		}
		vsiRedone := cellInt(t, tbl, i, 3)
		rsiRedone := cellInt(t, tbl, i+1, 3)
		if rsiRedone > vsiRedone {
			t.Errorf("delete pct %s: rSI redid %d > vSI's %d", vsiRow[0], rsiRedone, vsiRedone)
		}
		vsiScan := cellInt(t, tbl, i, 2)
		rsiScan := cellInt(t, tbl, i+1, 2)
		if rsiScan > vsiScan {
			t.Errorf("delete pct %s: rSI scanned %d > vSI's %d", vsiRow[0], rsiScan, vsiScan)
		}
	}
}

// TestE7Shape: W_L beats W_P which beats physiological, increasingly with
// buffer size.
func TestE7Shape(t *testing.T) {
	tbl := runExp(t, "E7")
	for i := range tbl.Rows {
		wl := cellInt(t, tbl, i, 1)
		wp := cellInt(t, tbl, i, 2)
		ph := cellInt(t, tbl, i, 3)
		if !(wl < wp && wp <= ph) {
			t.Errorf("row %d: want W_L (%d) < W_P (%d) <= physiological (%d)", i, wl, wp, ph)
		}
	}
	// At 128 KiB the W_L saving is enormous.
	last := len(tbl.Rows) - 1
	wl, wp := cellInt(t, tbl, last, 1), cellInt(t, tbl, last, 2)
	if wp/wl < 100 {
		t.Errorf("128 KiB W_P/W_L = %d, want >= 100x", wp/wl)
	}
}

func TestE8Shape(t *testing.T) {
	tbl := runExp(t, "E8")
	for i := range tbl.Rows {
		if r := cellFloat(t, tbl, i, 3); r < 10 {
			t.Errorf("row %d: physio/logical ratio %.1f too small", i, r)
		}
	}
	// Ratio grows with file size.
	if r0, rn := cellFloat(t, tbl, 0, 3), cellFloat(t, tbl, len(tbl.Rows)-1, 3); rn <= r0 {
		t.Errorf("ratio must grow with file size: %.1f -> %.1f", r0, rn)
	}
}

func TestE9Shape(t *testing.T) {
	tbl := runExp(t, "E9")
	for i := range tbl.Rows {
		logical := cellInt(t, tbl, i, 1)
		physio := cellInt(t, tbl, i, 2)
		splits := cellInt(t, tbl, i, 3)
		if splits == 0 {
			t.Errorf("row %d: no splits occurred; experiment is vacuous", i)
		}
		if physio <= logical {
			t.Errorf("row %d: physiological (%d) must exceed logical (%d)", i, physio, logical)
		}
		if scanned := cellInt(t, tbl, i, 5); scanned != 256 {
			t.Errorf("row %d: post-crash leaf-chain scan found %d keys, want 256", i, scanned)
		}
	}
}

func TestE10Shape(t *testing.T) {
	tbl := runExp(t, "E10")
	// Rows are ordered never / 100 / 25: scan work must not increase.
	prevScan := int64(1 << 62)
	for i := range tbl.Rows {
		scanned := cellInt(t, tbl, i, 2)
		if scanned > prevScan {
			t.Errorf("row %d: scan grew with checkpoint frequency (%d > %d)", i, scanned, prevScan)
		}
		prevScan = scanned
	}
}

func TestE11Shape(t *testing.T) {
	tbl := runExp(t, "E11")
	if len(tbl.Rows) != 4 {
		t.Fatalf("want 4 batch sizes, got %d rows", len(tbl.Rows))
	}
	applied0 := cellInt(t, tbl, 0, 2)
	redo0 := cellInt(t, tbl, 0, 4)
	if applied0 == 0 {
		t.Fatal("no records shipped; experiment is vacuous")
	}
	if redo0 <= 0 || redo0 >= applied0 {
		t.Errorf("failover redo %d should be a proper uninstalled tail of %d applied", redo0, applied0)
	}
	prevLag := int64(1 << 62)
	for i := range tbl.Rows {
		// The same durable log ships at every batch size, so the applied
		// count and the promotion redo are batch-size independent.
		if got := cellInt(t, tbl, i, 2); got != applied0 {
			t.Errorf("row %d: applied %d, want %d at every batch size", i, got, applied0)
		}
		if got := cellInt(t, tbl, i, 4); got != redo0 {
			t.Errorf("row %d: failover redo %d, want %d at every batch size", i, got, redo0)
		}
		if lag := cellInt(t, tbl, i, 3); lag > prevLag {
			t.Errorf("row %d: peak lag grew with batch size (%d > %d)", i, lag, prevLag)
		} else {
			prevLag = lag
		}
	}
	// One-record batches cannot keep up with the workload: their peak lag
	// must strictly exceed the big-batch steady state.
	if lag1, lagBig := cellInt(t, tbl, 0, 3), cellInt(t, tbl, 3, 3); lag1 <= lagBig {
		t.Errorf("peak lag at batch 1 (%d) should exceed batch 64 (%d)", lag1, lagBig)
	}
	if batches1, batchesBig := cellInt(t, tbl, 0, 1), cellInt(t, tbl, 3, 1); batches1 <= batchesBig {
		t.Errorf("batch count at size 1 (%d) should exceed size 64 (%d)", batches1, batchesBig)
	}
}

// TestE13Shape checks the domain claim: summed over every scenario mix and
// both domains, logical logging writes fewer bytes than the physiological
// baseline on identical operation streams.
func TestE13Shape(t *testing.T) {
	tbl := runExp(t, "E13")
	var logical, physio int64
	for i := range tbl.Rows {
		logical += cellInt(t, tbl, i, 2)
		physio += cellInt(t, tbl, i, 3)
	}
	if logical >= physio {
		t.Errorf("logical log bytes (%d) not below the physiological baseline (%d)", logical, physio)
	}
}

func TestA1Shape(t *testing.T) {
	tbl := runExp(t, "A1")
	if len(tbl.Rows) != 2 {
		t.Fatal("want 2 rows")
	}
	withRecs := cellInt(t, tbl, 0, 2)
	without := cellInt(t, tbl, 1, 2)
	if withRecs > without {
		t.Errorf("install records must not increase redo work: %d vs %d", withRecs, without)
	}
}

func TestA2Shape(t *testing.T) {
	tbl := runExp(t, "A2")
	var w, rw []string
	for _, row := range tbl.Rows {
		switch row[0] {
		case "W":
			w = row
		case "rW":
			rw = row
		}
	}
	if w == nil || rw == nil {
		t.Fatal("missing rows")
	}
	rwUnflushed, _ := strconv.Atoi(rw[3])
	wUnflushed, _ := strconv.Atoi(w[3])
	if wUnflushed != 0 {
		t.Errorf("W installed %d objects without flushing; W cannot do that", wUnflushed)
	}
	if rwUnflushed == 0 {
		t.Error("rW installed nothing without flushing on a logical workload; expected some")
	}
}

func TestRenderAndFind(t *testing.T) {
	tbl := &Table{ID: "T", Title: "title", Paper: "Fig X", Columns: []string{"a", "bb"}}
	tbl.AddRow("1", 22)
	tbl.AddRow(3.5, "x")
	tbl.Notes = append(tbl.Notes, "note")
	var buf bytes.Buffer
	tbl.Render(&buf)
	out := buf.String()
	for _, want := range []string{"T — title", "Fig X", "a", "bb", "22", "3.50", "note:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	if _, ok := Find("e1"); !ok {
		t.Error("Find must be case-insensitive")
	}
	if _, ok := Find("E99"); ok {
		t.Error("Find invented an experiment")
	}
	if len(All()) < 12 {
		t.Errorf("All() = %d experiments", len(All()))
	}
}
