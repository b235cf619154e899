package experiments

import (
	"fmt"
	"math"
	"os"
	"testing"
)

// The bits of every Table I cell and every ring-vs-naive ablation row for
// PaperCampaign(), and the exact text benchtable prints from them. The
// model is pure arithmetic over seeded draws, so any change to its terms,
// to the order they are summed in, or to the order the random streams are
// consumed moves these. Run with REPRO_GOLDEN_PRINT=1 to print the current
// values as Go source instead of comparing.

// table1Bits holds, per GPU count of the paper's ladder, the Float64bits of
// Data {Mean, Min, Max, Speedup} then Exp {Mean, Min, Max, Speedup}.
var table1Bits = [][8]uint64{
	{0x41058e2f79bffbdd, 0x4105647060c73f84, 0x4105b09eea492b48, 0x3ff0000000000000, 0x4105602900597b8c, 0x4105254472239513, 0x41058251eae90b0d, 0x3ff0000000000000},
	{0x40f66033c43062b5, 0x40f623faa77a13ec, 0x40f6d1a8d7e30ea6, 0x3ffed3a6c48de719, 0x40f5a1c4df01ec89, 0x40f5456a8a162e72, 0x40f5eced308ccbae, 0x3fff9ef1ef8d73af},
	{0x40ed26b7d025739c, 0x40ece7045af68d30, 0x40ed7949ff2af6fb, 0x4007a970ef28ea0d, 0x40e7a35979be1425, 0x40e77beb9b87b48c, 0x40e7c6f04ba65f29, 0x400cefec7db29ab3},
	{0x40e0169551b8ae62, 0x40dfd988a1d6e6e8, 0x40e04a68352bcb9f, 0x40156fed83597670, 0x40db2511f2420529, 0x40daaab640478e9d, 0x40db8aa6d5bf664b, 0x401932ed054c3c77},
	{0x40d784593094b2ed, 0x40d74b905d26b635, 0x40d7aa51a4ea4fd1, 0x401d54b2922878cf, 0x40d51b65b8f03475, 0x40d4c6071029ca1b, 0x40d57b80b5612764, 0x40203420048ffa58},
	{0x40d2c6520da688c4, 0x40d27a0048fdc90d, 0x40d2fd38601dedc5, 0x40225ea8c3fa6af4, 0x40d08c146749f846, 0x40d04d457ebe668c, 0x40d0e1afc6ca6004, 0x4024ab3498b1f70d},
	{0x40cbfdcfe19a96b7, 0x40cbae55ab4951d9, 0x40cc645d7f341e8e, 0x4028a46c59c98e95, 0x40c705c2c8a5d8b7, 0x40c5a2dc32405b91, 0x40c809320bbebb5a, 0x402db5ff9a16be28},
}

// ablationBits holds, per GPU count, RingSec, NaiveSec and NaivePenalty.
var ablationBits = [][3]uint64{
	{0x41054f56d978f000, 0x41054f56d978f000, 0x3ff0000000000000},
	{0x40f62d9e3c34390d, 0x40f62dcf9b13f0b6, 0x3ff000239e0dc75a},
	{0x40eccfa957f1ab85, 0x40ecd08a1ffe5018, 0x3ff0007cd483752a},
	{0x40df80e0ec7ed98d, 0x40df9b600ea3f277, 0x3ff00d75069642fc},
	{0x40d6f57123fd1a14, 0x40d7132edc99ae33, 0x3ff014ba0420bc4f},
	{0x40d220c7cac62244, 0x40d23f328d664565, 0x3ff01ad8ac7c7d3e},
	{0x40caaa0ed6707d44, 0x40caf0eba12211d1, 0x3ff02a857217cec1},
}

const table1Text = `            Data Parallel Method      Experiment Parallel Method
# GPUs    Elapsed time   Speedup     Elapsed time   Speedup
     1        49:03:02      1.00         48:38:29      1.00
     2        25:27:31      1.93         24:36:44      1.98
     4        16:35:02      2.96         13:26:51      3.62
     8         9:09:09      5.36          7:43:16      6.30
    12         6:41:21      7.33          6:00:14      8.10
    16         5:20:25      9.18          4:42:24     10.33
    32         3:58:52     12.32          3:16:28     14.86
`

const fig4Text = `data-parallel (seconds)
   1 GPUs:     176581.9  [min 175246.0, max 177683.9]
   2 GPUs:      91651.2  [min 90687.7, max 93466.6]
   4 GPUs:      59701.7  [min 59192.1, max 60362.3]
   8 GPUs:      32948.7  [min 32614.1, max 33363.3]
  12 GPUs:      24081.4  [min 23854.3, max 24233.3]
  16 GPUs:      19225.3  [min 18920.0, max 19444.9]
  32 GPUs:      14331.6  [min 14172.7, max 14536.7]
experiment-parallel (seconds)
   1 GPUs:     175109.1  [min 173224.6, max 176202.2]
   2 GPUs:      88604.3  [min 87126.7, max 89806.8]
   4 GPUs:      48410.8  [min 48095.4, max 48695.5]
   8 GPUs:      27796.3  [min 27306.8, max 28202.6]
  12 GPUs:      21613.6  [min 21272.1, max 21998.0]
  16 GPUs:      16944.3  [min 16693.1, max 17286.7]
  32 GPUs:      11787.5  [min 11077.7, max 12306.4]
data-parallel (x)
   1 GPUs:         1.00
   2 GPUs:         1.93
   4 GPUs:         2.96
   8 GPUs:         5.36
  12 GPUs:         7.33
  16 GPUs:         9.18
  32 GPUs:        12.32
experiment-parallel (x)
   1 GPUs:         1.00
   2 GPUs:         1.98
   4 GPUs:         3.62
   8 GPUs:         6.30
  12 GPUs:         8.10
  16 GPUs:        10.33
  32 GPUs:        14.86
`

const ablationText = `# GPUs            ring           naive   penalty
     1        48:29:31        48:29:31     1.00x
     2        25:14:02        25:14:05     1.00x
     4        16:23:25        16:23:32     1.00x
     8         8:57:40         8:59:26     1.00x
    12         6:31:50         6:33:49     1.01x
    16         5:09:23         5:11:25     1.01x
    32         3:47:32         3:49:54     1.01x
`

func statBits(s RunStats) [4]uint64 {
	return [4]uint64{math.Float64bits(s.MeanSec), math.Float64bits(s.MinSec), math.Float64bits(s.MaxSec), math.Float64bits(s.Speedup)}
}

func fig4Render(rows []Measurement) string {
	da, ea := Fig4a(rows)
	db, eb := Fig4b(rows)
	return FormatSeries(da, "seconds") + FormatSeries(ea, "seconds") + FormatSeries(db, "x") + FormatSeries(eb, "x")
}

func TestPaperCampaignGolden(t *testing.T) {
	cfg, err := PaperCampaign()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	abl := RunAllReduceAblation(cfg.Params, cfg.GPUCounts)

	gotTable := make([][8]uint64, len(rows))
	for i, r := range rows {
		d, e := statBits(r.Data), statBits(r.Exp)
		copy(gotTable[i][:4], d[:])
		copy(gotTable[i][4:], e[:])
	}
	gotAbl := make([][3]uint64, len(abl))
	for i, r := range abl {
		gotAbl[i] = [3]uint64{math.Float64bits(r.RingSec), math.Float64bits(r.NaiveSec), math.Float64bits(r.NaivePenalty)}
	}

	if os.Getenv("REPRO_GOLDEN_PRINT") != "" {
		fmt.Println("var table1Bits = [][8]uint64{")
		for _, b := range gotTable {
			fmt.Printf("\t{%#x, %#x, %#x, %#x, %#x, %#x, %#x, %#x},\n", b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7])
		}
		fmt.Println("}")
		fmt.Println("var ablationBits = [][3]uint64{")
		for _, b := range gotAbl {
			fmt.Printf("\t{%#x, %#x, %#x},\n", b[0], b[1], b[2])
		}
		fmt.Println("}")
		fmt.Printf("const table1Text = `%s`\n", FormatTable1(rows))
		fmt.Printf("const fig4Text = `%s`\n", fig4Render(rows))
		fmt.Printf("const ablationText = `%s`\n", FormatAllReduceAblation(abl))
		return
	}

	if len(gotTable) != len(table1Bits) {
		t.Fatalf("%d Table I rows, want %d", len(gotTable), len(table1Bits))
	}
	for i := range gotTable {
		if gotTable[i] != table1Bits[i] {
			t.Errorf("Table I row %d (%d GPUs): bits %#x, want %#x", i, rows[i].GPUs, gotTable[i], table1Bits[i])
		}
	}
	if len(gotAbl) != len(ablationBits) {
		t.Fatalf("%d ablation rows, want %d", len(gotAbl), len(ablationBits))
	}
	for i := range gotAbl {
		if gotAbl[i] != ablationBits[i] {
			t.Errorf("ablation row %d (%d GPUs): bits %#x, want %#x", i, abl[i].GPUs, gotAbl[i], ablationBits[i])
		}
	}
	for _, c := range []struct{ name, got, want string }{
		{"FormatTable1", FormatTable1(rows), table1Text},
		{"FormatSeries", fig4Render(rows), fig4Text},
		{"FormatAllReduceAblation", FormatAllReduceAblation(abl), ablationText},
	} {
		if c.got != c.want {
			t.Errorf("%s:\n%s\nwant:\n%s", c.name, c.got, c.want)
		}
	}
}
