package ratls

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"repro/internal/sgx"
)

// FromFlags builds a command's wire-channel config from its -insecure,
// -ratls-secret and -ratls-secret-file flags: plaintext only behind
// -insecure, otherwise NewProvisioned over the secret (read from the file
// when one is given). The attested default refuses to start without a
// secret. m is the machine the channel enclave runs on; nil mints a
// dedicated channel machine called name.
func FromFlags(insecure bool, secret, secretFile, name string, m *sgx.Machine, codeIdentity []byte, trustedCode ...[]byte) (*Config, error) {
	if insecure {
		return Insecure(), nil
	}
	if secretFile != "" {
		raw, err := os.ReadFile(secretFile)
		if err != nil {
			return nil, fmt.Errorf("reading -ratls-secret-file: %w", err)
		}
		secret = strings.TrimSpace(string(raw))
	}
	if secret == "" {
		return nil, errors.New("the wire channel is attested by default: provide -ratls-secret or -ratls-secret-file (the same secret on every peer), or opt out explicitly with -insecure")
	}
	if m == nil {
		var err error
		if m, err = sgx.NewMachine(sgx.MachineConfig{Name: name}); err != nil {
			return nil, err
		}
	}
	return NewProvisioned(name, m, []byte(secret), codeIdentity, trustedCode...)
}
