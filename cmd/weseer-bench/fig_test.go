package main

import (
	"testing"

	"weseer/internal/apps/broadleaf"
	"weseer/internal/apps/shopizer"
)

// checkFixConfigs asserts that every fixConfigs configuration opens the
// same fix set the Fig. 10/11 ablations name: "disable f" applies every
// fix but f (AllFixes().Disable(f)), and "disable all" applies none.
func checkFixConfigs[F comparable](t *testing.T, names []string, from func([]string) (F, error), all F, disable func(F, string) F) {
	t.Helper()
	var zero F
	if got, err := from(nil); err != nil || got != zero {
		t.Errorf("FixesFrom(nil) = %+v, %v; want the zero Fixes", got, err)
	}
	configs := fixConfigs(names)
	if len(configs) != len(names)+2 {
		t.Fatalf("%d configurations for %d fixes", len(configs), len(names))
	}
	if c := configs[0]; c.label != "enable all" || !c.opt.Fixed || c.opt.Apply != nil {
		t.Errorf("configs[0] = %+v, want enable all = Fixed", c)
	}
	if c := configs[1]; c.label != "disable all" || c.opt.Fixed || c.opt.Apply != nil {
		t.Errorf("configs[1] = %+v, want disable all = no fixes", c)
	}
	for i, f := range names {
		c := configs[i+2]
		if c.label != "disable "+f || c.opt.Fixed {
			t.Errorf("configs[%d] = %+v, want disable %s", i+2, c, f)
		}
		got, err := from(c.opt.Apply)
		if err != nil {
			t.Fatal(err)
		}
		if want := disable(all, f); got != want {
			t.Errorf("disable %s: FixesFrom(%v) = %+v, want AllFixes().Disable(%q) = %+v",
				f, c.opt.Apply, got, f, want)
		}
	}
}

// TestFixConfigsMatchDisable pins that routing Fig. 10/11 through the
// registry's Apply runs the configurations the figures define.
func TestFixConfigsMatchDisable(t *testing.T) {
	t.Run("broadleaf", func(t *testing.T) {
		checkFixConfigs(t, broadleaf.FixNames(), broadleaf.FixesFrom, broadleaf.AllFixes(), broadleaf.Fixes.Disable)
	})
	t.Run("shopizer", func(t *testing.T) {
		checkFixConfigs(t, shopizer.FixNames(), shopizer.FixesFrom, shopizer.AllFixes(), shopizer.Fixes.Disable)
	})
}
