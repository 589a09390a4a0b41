package difffuzz

import (
	"testing"
)

// A staged target where divergence feedback matters: the first-stage
// discrepancy input is the *prefix* of the second-stage one, so a
// fuzzer that keeps mutating discrepancy inputs reaches the deep bug
// faster than one guided by coverage alone (coverage saturates at
// stage one — the branches are the same, only the uninitialized
// values differ).
const stagedTarget = `
int stage_two(char* buf, long n) {
    int deep;
    if (n >= 6 && buf[5] == 'Z') {
        printf("deep %d\n", deep & 4095);
        return 1;
    }
    return 0;
}
int main() {
    char buf[16];
    long n = read_input(buf, 16L);
    if (n < 4) { printf("short\n"); return 0; }
    if (buf[0] != 'S' || buf[1] != 'T') { printf("magic\n"); return 0; }
    int shallow;
    if (buf[2] == 'G') {
        printf("shallow %d\n", shallow & 4095);
        stage_two(buf, n);
        return 0;
    }
    printf("plain\n");
    return 0;
}
`

func runStaged(t *testing.T, feedback bool, budget int64) int {
	t.Helper()
	c := runSolo(t, stagedTarget, [][]byte{[]byte("STG\x01\x02\x03")}, Options{
		FuzzSeed:           99,
		MaxInputLen:        16,
		DivergenceFeedback: feedback,
	}, budget)
	return len(c.Diffs())
}

func TestDivergenceFeedbackMechanism(t *testing.T) {
	// A bare shard run: a pool barrier would feed the diff inputs back
	// into the queue with or without feedback.
	c := newSolo(t, stagedTarget, [][]byte{[]byte("STG\x01")}, Options{
		FuzzSeed:           5,
		MaxInputLen:        16,
		DivergenceFeedback: true,
	})
	before := c.fuzzer.Stats().Seeds
	c.run(2_000)
	if c.diffs.Len() == 0 {
		t.Fatal("no discrepancies found")
	}
	// The diverging seed input itself must have been promoted into the
	// queue (coverage alone would not add it: the path is the seed's).
	if c.fuzzer.Stats().Seeds <= before {
		t.Fatalf("queue did not grow beyond %d", before)
	}
}

func TestDivergenceFeedbackFindsAtLeastAsMuch(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation")
	}
	budget := int64(12_000)
	with := runStaged(t, true, budget)
	without := runStaged(t, false, budget)
	if with < without {
		t.Fatalf("feedback found %d < baseline %d discrepancies", with, without)
	}
	if with == 0 {
		t.Fatal("feedback campaign found nothing")
	}
	t.Logf("discrepancies at %d execs: with feedback %d, without %d", budget, with, without)
}
