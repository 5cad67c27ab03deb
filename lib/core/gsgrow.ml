(* GSgrow is the engine with plain instance growth and no closure
   machinery: every frequent node emits its pattern. *)
let strategy =
  { Engine.name = "Gsgrow"; grow = Support_set.grow; closure = None }
