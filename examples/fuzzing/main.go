// The fuzzing example runs a small CompDiff-AFL++ campaign (paper
// Algorithm 1) against a packet parser with a guarded unstable
// overflow check. The fuzzer must first *reach* the guard (coverage
// feedback), then *trigger* the overflow (mutation); the differential
// oracle flags the input the moment two binaries disagree.
package main

import (
	"context"
	"fmt"
	"log"

	"compdiff"
)

const target = `
int parse_length_field(int base, int extra, int limit) {
    if (base < 0 || extra < 0) { return -1; }
    if (base + extra < base) { return -1; } /* unstable guard */
    if (base > limit) { return -2; }
    return base + extra;
}

int main() {
    char pkt[10];
    long n = read_input(pkt, 10L);
    if (n < 10) { return 0; }
    if (pkt[0] != 'L' || pkt[1] != 'N') { return 0; }
    int base = 0;
    int extra = 0;
    memcpy((char*)&base, pkt + 2, 4L);
    memcpy((char*)&extra, pkt + 6, 4L);
    base = base & 2147483647;
    extra = extra & 2147483647;
    printf("length=%d\n", parse_length_field(base, extra, 2147483647));
    return 0;
}
`

func main() {
	seeds := [][]byte{[]byte("LN\x01\x00\x00\x00\x02\x00\x00\x00")}
	// A campaign pool with the default single shard: one fuzzer running
	// its whole budget, as in the paper's Algorithm 1.
	campaign, err := compdiff.NewCampaignPool(target, seeds, compdiff.CampaignOptions{
		FuzzSeed:    7,
		MaxInputLen: 10,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== CompDiff-AFL++ campaign (paper Algorithm 1) ==")
	fmt.Printf("implementations: %v\n", campaign.ImplNames())
	stats := campaign.Run(context.Background(), 30_000)
	fmt.Printf("executions: %d  corpus: %d seeds  crashes: %d\n",
		stats.Execs, stats.ShardStats[0].Seeds, stats.UniqueCrashes)
	fmt.Printf("differential executions: %d (the ~10x oversight cost §5 discusses)\n\n", stats.DiffExecs)

	diffs := campaign.Diffs()
	fmt.Printf("unique discrepancies found: %d (from %d diverging inputs)\n\n",
		len(diffs), campaign.TotalDiffInputs())
	for _, d := range diffs {
		fmt.Println(d.Report(campaign.ImplNames()))
	}
	if len(diffs) == 0 {
		log.Fatal("campaign found nothing; raise the budget")
	}
}
