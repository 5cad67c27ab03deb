open Rgs_sequence

(* CloGSgrow is the engine with plain instance growth plus the closure
   spec: CCheck/LBCheck before expansion, equal-support appends as free
   non-closedness proof. The size-1 support sets reused as prepend bases
   by every closure check are memoised per run. *)
let strategy ~use_lb_check ~use_c_check =
  let make_closure idx ~events ~trace =
    let event_set_cache : (Event.t, Support_set.t) Hashtbl.t =
      Hashtbl.create 64
    in
    let event_sets e =
      match Hashtbl.find_opt event_set_cache e with
      | Some s -> s
      | None ->
        let s = Support_set.of_event idx e in
        Hashtbl.add event_set_cache e s;
        s
    in
    {
      Engine.check =
        (fun ~pattern ~support_set ~prefix_rev_chain ->
          if use_c_check || use_lb_check then begin
            let prefix_sets = Array.of_list (List.rev prefix_rev_chain) in
            let v =
              Closure.check ~event_sets ~trace idx ~candidate_events:events
                ~prefix_sets ~pattern ~support_set ~has_equal_append:false
            in
            if not use_lb_check then { v with Closure.prunable = false }
            else if not use_c_check then { v with Closure.closed = true }
            else v
          end
          else { Closure.closed = true; prunable = false });
      detect_equal_append = use_c_check;
    }
  in
  {
    Engine.name = "Clogsgrow";
    grow = Support_set.grow;
    closure = Some make_closure;
  }
