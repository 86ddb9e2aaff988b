(* Read-ahead over the data cache, as a switch and a ledger.

   The policy itself lives in [Dcache.fill]: over a wire, a demand miss
   reads the whole page block around its line in the one round trip it
   pays anyway.  Separate speculative reads (a stride detector's spans,
   a chase walker's hops) each cost a synchronous round trip of their
   own, so at best they break even; carried on the demand trip, the
   same bytes cost nothing extra.  This module is the name the session,
   the backend specs and the benches know it by. *)

type stats = Dcache.spec_stats = {
  mutable issued : int;
  mutable useful : int;
  mutable wasted : int;
  mutable blocks : int;
}

let stats = Dcache.spec_stats
let is_attached dbg = stats dbg <> None
let attach dbg = is_attached dbg || Dcache.set_readahead dbg true
let enabled = Dcache.readahead
let set_enabled dbg on = is_attached dbg && Dcache.set_readahead dbg on

let to_lines ?(on = true) st =
  [
    Printf.sprintf "prefetch: %s (page-block fills on wires, one line direct)"
      (if on then "on" else "off");
    Printf.sprintf "read-ahead: %d speculative lines in %d block fills"
      st.issued st.blocks;
    Printf.sprintf "resolved: %d useful, %d wasted, %d still resident"
      st.useful st.wasted
      (st.issued - st.useful - st.wasted);
  ]
