package openpmd

import (
	"fmt"
	"sort"
	"strings"

	"picmcio/internal/adios2"
)

// Config is the parsed form of the "TOML-based dynamic configuration" the
// paper's openPMD integration uses (§III-B): dotted-section tables of
// string keys. Only the TOML subset openPMD-api actually consumes is
// supported: [section.subsection] headers, `key = value` lines with
// string/number/bool values, comments, and blank lines.
type Config struct {
	kv map[string]string // fully-qualified dotted key → value
}

// ParseTOML parses the supported TOML subset.
func ParseTOML(src string) (*Config, error) {
	cfg := &Config{kv: map[string]string{}}
	section := ""
	for ln, line := range strings.Split(src, "\n") {
		s := strings.TrimSpace(line)
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		if strings.HasPrefix(s, "[") {
			if !strings.HasSuffix(s, "]") {
				return nil, fmt.Errorf("openpmd: toml line %d: unterminated section", ln+1)
			}
			section = strings.TrimSpace(s[1 : len(s)-1])
			if section == "" {
				return nil, fmt.Errorf("openpmd: toml line %d: empty section", ln+1)
			}
			continue
		}
		eq := strings.Index(s, "=")
		if eq < 0 {
			return nil, fmt.Errorf("openpmd: toml line %d: expected key = value", ln+1)
		}
		key := strings.TrimSpace(s[:eq])
		val := strings.TrimSpace(s[eq+1:])
		if key == "" {
			return nil, fmt.Errorf("openpmd: toml line %d: empty key", ln+1)
		}
		if i := strings.Index(val, " #"); i >= 0 {
			val = strings.TrimSpace(val[:i])
		}
		val = strings.Trim(val, `"'`)
		full := key
		if section != "" {
			full = section + "." + key
		}
		cfg.kv[full] = val
	}
	return cfg, nil
}

// Get returns the value for a dotted key and whether it was present.
func (c *Config) Get(key string) (string, bool) {
	v, ok := c.kv[key]
	return v, ok
}

// GetDefault returns the value for key or def when absent.
func (c *Config) GetDefault(key, def string) string {
	if v, ok := c.kv[key]; ok {
		return v
	}
	return def
}

// Keys lists all configured keys, sorted.
func (c *Config) Keys() []string {
	out := make([]string, 0, len(c.kv))
	for k := range c.kv {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ioTemplate is the world-memo value of an options document's ADIOS2
// settings: an IO every rank's is forked from, or why there is none.
type ioTemplate struct {
	io  *adios2.IO
	err error
}

// newIOTemplate parses the options document and resolves it into ADIOS2
// settings.
func newIOTemplate(options string) ioTemplate {
	cfg, err := ParseTOML(options)
	if err != nil {
		return ioTemplate{err: err}
	}
	io := adios2.New().DeclareIO("openpmd")
	// BP4 is the one engine; the TOML may name it, and nothing else.
	if engine := cfg.GetDefault("adios2.engine.type", "bp4"); engine != "bp4" && engine != "BP4" {
		return ioTemplate{err: fmt.Errorf("openpmd: unsupported adios2 engine %q (use bp4)", engine)}
	}
	// Engine parameters pass through from the TOML config; the aggregator
	// count is the paper's OPENPMD_ADIOS2_BP5_NumAgg knob. A tier's drain
	// policy and QoS are its burst.Spec's, so a burst_* key other than the
	// two top-level ones below — under [adios2.engine] too — is a typo or
	// a removed knob, and an error.
	for _, key := range cfg.Keys() {
		if param, ok := strings.CutPrefix(key, "adios2.engine.parameters."); ok && param != "" {
			v, _ := cfg.Get(key)
			io.SetParameter(param, v)
		}
		if name := strings.TrimPrefix(key, "adios2.engine."); strings.HasPrefix(name, "burst_") && key != "burst_buffer" && key != "burst_durability" {
			return ioTemplate{err: fmt.Errorf("openpmd: unknown key %q (the burst keys are burst_buffer and burst_durability)", key)}
		}
	}
	if op, ok := cfg.Get("adios2.dataset.operators.type"); ok {
		if err := io.AddOperation(op); err != nil {
			return ioTemplate{err: err}
		}
	}
	// Burst-buffer staging: a top-level `burst_buffer = true` routes
	// engine I/O through the host environment's staging tier;
	// `burst_durability = "pfs"` makes iteration close wait for write-back
	// instead of returning at buffered durability.
	for _, bk := range []struct{ toml, param string }{
		{"burst_buffer", "BurstBuffer"},
		{"burst_durability", "BurstDurability"},
	} {
		if v, ok := cfg.Get(bk.toml); ok {
			io.SetParameter(bk.param, v)
		}
	}
	return ioTemplate{io: io}
}
