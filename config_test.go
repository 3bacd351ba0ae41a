package pgssi_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"pgssi"
	"pgssi/internal/core"
	"pgssi/internal/mvcc"
	"pgssi/internal/storage"
	"pgssi/internal/wal"
)

// TestConfigIsDeploymentSurface keeps test-only seams off the public
// Config: no callbacks, no On* hooks, no ablation other than the one the
// paper's figures plot (§4's read-only optimizations, the "no r/o opt"
// series of Figures 4 and 5), and no filesystem override. Tests reach
// those through Hooks (export_test.go); every field left is one a
// deployment, binary or workload sets.
func TestConfigIsDeploymentSurface(t *testing.T) {
	paperAblations := map[string]bool{"DisableReadOnlyOpt": true}
	fsType := reflect.TypeOf((*wal.FS)(nil)).Elem()
	ct := reflect.TypeOf(pgssi.Config{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if f.Type.Kind() == reflect.Func {
			t.Errorf("Config.%s is a callback", f.Name)
		}
		if strings.HasPrefix(f.Name, "On") {
			t.Errorf("Config.%s is a hook", f.Name)
		}
		if strings.HasPrefix(f.Name, "Disable") && !paperAblations[f.Name] {
			t.Errorf("Config.%s is an ablation the paper does not evaluate", f.Name)
		}
		if f.Type == fsType {
			t.Errorf("Config.%s overrides the WAL filesystem", f.Name)
		}
	}
}

// TestFencesHaveNoSwitch keeps the engine's fences free of off switches:
// the only Disable* fields of the test seam and of the layers' Configs
// are the ablations the paper evaluates (§3.3.1's commit ordering, §4's
// read-only optimizations). A fence is proved by its entry in the
// mutation table (mutants_test.go), not by a field that turns it off.
func TestFencesHaveNoSwitch(t *testing.T) {
	for _, c := range []struct {
		cfg       any
		ablations []string
	}{
		{pgssi.Hooks{}, []string{"DisableCommitOrderingOpt"}},
		{core.Config{}, []string{"DisableCommitOrderingOpt", "DisableReadOnlyOpt"}},
		{mvcc.Config{}, nil},
		{storage.Config{}, nil},
	} {
		ct := reflect.TypeOf(c.cfg)
		for i := 0; i < ct.NumField(); i++ {
			if f := ct.Field(i).Name; strings.HasPrefix(f, "Disable") && !slices.Contains(c.ablations, f) {
				t.Errorf("%s.%s switches off something the paper does not ablate", ct, f)
			}
		}
	}
}
