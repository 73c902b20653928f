package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"logres"
	"logres/client"
)

// StatusClientClosedRequest is the non-standard status (nginx's 499)
// reported when the client canceled its request mid-evaluation; the
// engine aborted with a *CanceledError and the database state is
// untouched.
const StatusClientClosedRequest = 499

// mapError converts an engine error into its wire form: the HTTP
// status and the typed ErrorResponse body. The table (DESIGN.md §10):
//
//	*ConflictError                  409  kind=conflict  (both footprints)
//	*BudgetError (any axis)         422  kind=budget    (axis named)
//	*CanceledError → ctx.Canceled   499  kind=canceled
//	*CanceledError → DeadlineExceeded 504 kind=deadline
//	*PanicError                     500  kind=panic
//	anything else (parse/reject)    400  kind=invalid
//	  (including *parser.NestingError: input nested past parser.MaxNesting)
func mapError(err error) (int, client.ErrorResponse) {
	var conflict *logres.ConflictError
	if errors.As(err, &conflict) {
		return http.StatusConflict, client.ErrorResponse{
			Error:   err.Error(),
			Kind:    client.KindConflict,
			Pred:    conflict.Pred,
			Retries: conflict.Retries,
			Mine:    footprintJSON(conflict.Mine),
			Theirs:  footprintJSON(conflict.Theirs),
		}
	}
	var budget *logres.BudgetError
	if errors.As(err, &budget) {
		return http.StatusUnprocessableEntity, client.ErrorResponse{
			Error: err.Error(),
			Kind:  client.KindBudget,
			Axis:  string(budget.Axis),
		}
	}
	var canceled *logres.CanceledError
	if errors.As(err, &canceled) {
		if errors.Is(canceled, context.DeadlineExceeded) {
			return http.StatusGatewayTimeout, client.ErrorResponse{Error: err.Error(), Kind: client.KindDeadline}
		}
		return StatusClientClosedRequest, client.ErrorResponse{Error: err.Error(), Kind: client.KindCanceled}
	}
	var panicked *logres.PanicError
	if errors.As(err, &panicked) {
		return http.StatusInternalServerError, client.ErrorResponse{Error: err.Error(), Kind: client.KindPanic}
	}
	return http.StatusBadRequest, client.ErrorResponse{Error: err.Error(), Kind: client.KindInvalid}
}

func footprintJSON(fp logres.Footprint) *client.FootprintJSON {
	return &client.FootprintJSON{Reads: fp.Reads, Writes: fp.Writes, Universal: fp.Universal}
}

// writeError sends one ErrorResponse body with the given status.
func writeError(w http.ResponseWriter, status int, resp client.ErrorResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(resp)
}

// writeEngineError maps and sends an engine error.
func writeEngineError(w http.ResponseWriter, err error) {
	status, resp := mapError(err)
	writeError(w, status, resp)
}
