package engine

import (
	"reflect"
	"testing"

	"gps/internal/trace"
)

// TestRunSpilledMatchesResident replays the same program from resident and
// spilled columnar blocks, and requires the model to see an identical access
// stream and the engine to produce an identical result. This is the
// storage-equivalence oracle for the block-cursor replay path.
func TestRunSpilledMatchesResident(t *testing.T) {
	resident := twoGPUProgram()
	spilled := twoGPUProgram()
	sf, err := trace.NewSpillFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if freed, err := spilled.Spill(sf); err != nil || freed == 0 {
		t.Fatalf("spill: freed %d, err %v", freed, err)
	}

	run := func(p trace.Program) (*recordingModel, *Result) {
		m := &recordingModel{}
		return m, Run(p, m)
	}
	mRes, rRes := run(resident)
	mSp, rSp := run(spilled)
	if !reflect.DeepEqual(mSp.accesses, mRes.accesses) {
		t.Fatal("spilled replay fed the model a different access stream")
	}
	if !reflect.DeepEqual(rSp, rRes) {
		t.Fatal("spilled replay produced a different result")
	}
}

// TestRunPanicsOnUnreadableBlock documents the failure mode: a block that can
// no longer be fetched panics out of the replay loop (the experiment runner's
// fences turn this into a typed cell error).
func TestRunPanicsOnUnreadableBlock(t *testing.T) {
	col := twoGPUProgram()
	sf, err := trace.NewSpillFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := col.Spill(sf); err != nil {
		t.Fatal(err)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("replay of an unreadable block did not panic")
		}
	}()
	Run(col, &recordingModel{})
}
