package pgssi_test

import (
	"reflect"
	"strings"
	"testing"

	"pgssi"
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
