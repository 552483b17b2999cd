package rest

import (
	"errors"
	"net/http"

	"forkbase/internal/core"
	"forkbase/internal/dataset"
)

// importCSV creates the dataset from a CSV body, or with append=1 upserts
// the body's rows into it through the batched incremental write path.
func (h *Handler) importCSV(w http.ResponseWriter, r *http.Request, name string) {
	if r.URL.Query().Get("append") == "1" {
		cur, err := dataset.Open(h.db, name, branchParam(r))
		if err != nil {
			writeErr(w, err)
			return
		}
		ds, err := cur.AppendCSV(r.Body, nil)
		if err != nil {
			if errors.Is(err, core.ErrStaleHead) {
				writeErr(w, err) // lost head race is the caller's 409, not a 400
				return
			}
			writeBadBody(w, err, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"dataset": name,
			"rows":    ds.Rows(),
			"uid":     ds.Version().UID.String(),
		})
		return
	}
	keyCol := r.URL.Query().Get("key")
	if keyCol == "" {
		keyCol = "id"
	}
	ds, err := dataset.CreateFromCSV(h.db, name, branchParam(r), keyCol, r.Body, nil)
	if err != nil {
		writeBadBody(w, err, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"dataset": name,
		"rows":    ds.Rows(),
		"uid":     ds.Version().UID.String(),
	})
}

func (h *Handler) exportCSV(w http.ResponseWriter, r *http.Request, name string) {
	ds, err := dataset.Open(h.db, name, branchParam(r))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.WriteHeader(http.StatusOK)
	_ = ds.ExportCSV(w)
}

func (h *Handler) datasetStat(w http.ResponseWriter, r *http.Request, name string) {
	ds, err := dataset.Open(h.db, name, branchParam(r))
	if err != nil {
		writeErr(w, err)
		return
	}
	st, err := ds.Stat()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":        st.Name,
		"branch":      st.Branch,
		"rows":        st.Rows,
		"columns":     st.Columns,
		"versions":    st.Versions,
		"tree_height": st.Tree.Height,
		"tree_nodes":  st.Tree.Nodes,
		"avg_leaf":    st.Tree.AvgLeaf(),
	})
}

func (h *Handler) datasetDiff(w http.ResponseWriter, r *http.Request, name string) {
	from, to := r.URL.Query().Get("from"), r.URL.Query().Get("to")
	if from == "" || to == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "need from= and to= branches"})
		return
	}
	res, err := dataset.DiffBranches(h.db, name, from, to)
	if err != nil {
		writeErr(w, err)
		return
	}
	deltas := make([]map[string]any, len(res.Deltas))
	for i, d := range res.Deltas {
		entry := map[string]any{
			"key":  d.Key,
			"kind": d.Kind.String(),
		}
		if d.From != nil {
			entry["from"] = d.From
		}
		if d.To != nil {
			entry["to"] = d.To
		}
		if len(d.Cells) > 0 {
			cells := make([]map[string]string, len(d.Cells))
			for j, c := range d.Cells {
				cells[j] = map[string]string{"column": c.Column, "from": c.From, "to": c.To}
			}
			entry["cells"] = cells
		}
		deltas[i] = entry
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"summary":        res.Summary(),
		"deltas":         deltas,
		"touched_chunks": res.Stats.TouchedChunks,
	})
}
