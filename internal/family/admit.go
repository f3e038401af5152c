package family

import (
	"errors"
	"fmt"
	"strings"
)

// The admission checks refuse a request before any protocol runs: lwmd
// answers their errors 400 bad_request, and lwm runs the same checks
// before an in-process call, so an input one refuses the other refuses
// with the same text. Embed and verify check parameters after Normalize;
// every design text a request carries goes through ParseDesign.

// CheckEmbed admits an embed of n watermarks signed sig.
func CheckEmbed(sig string, n int) error {
	if sig == "" {
		return errors.New("signature: required")
	}
	if n < 1 {
		return fmt.Errorf("n: must be positive, got %d", n)
	}
	return nil
}

// CheckDetect admits a detect of records in suspects.
func CheckDetect(suspects, records int) error {
	if suspects == 0 {
		return errors.New("suspects: at least one required")
	}
	if records == 0 {
		return errors.New("records: at least one required")
	}
	return nil
}

// CheckVerify admits an ownership claim by sig.
func CheckVerify(sig string) error {
	if sig == "" {
		return errors.New("signature: required")
	}
	return nil
}

// ParseDesign parses design text carried in field with proto's codec,
// refusing blank text, and prefixes failures with the field.
func ParseDesign(proto Protocol, field, text string) (Design, error) {
	if strings.TrimSpace(text) == "" {
		return nil, fmt.Errorf("%s: empty design", field)
	}
	d, err := proto.ParseDesign(text)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", field, err)
	}
	return d, nil
}
