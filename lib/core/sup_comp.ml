let support_set idx p =
  if Pattern.is_empty p then Support_set.empty
  else begin
    let i = ref (Support_set.of_event idx (Pattern.get p 1)) in
    for j = 2 to Pattern.length p do
      i := Support_set.grow idx !i (Pattern.get p j)
    done;
    !i
  end

let support idx p = Support_set.size (support_set idx p)

let landmarks idx p =
  if Pattern.is_empty p then []
  else begin
    let i = ref (Insgrow.full_of_event idx (Pattern.get p 1)) in
    for j = 2 to Pattern.length p do
      i := Insgrow.run_full idx !i (Pattern.get p j)
    done;
    !i
  end

let reconstruct idx p set =
  let m = Pattern.length p in
  if m = 0 then []
  else begin
    let out = ref [] in
    Support_set.fold_groups
      (fun () seq group ->
        (* Seed landmarks with the stored first positions (right-shift
           order), then replay INSgrow for indices 2..m within this
           sequence. *)
        let insts =
          ref
            (Array.to_list
               (Array.map
                  (fun (inst : Instance.t) ->
                    { Instance.fseq = seq; landmark = [| inst.Instance.first |] })
                  group))
        in
        for j = 2 to m do
          insts := Insgrow.run_full idx !insts (Pattern.get p j)
        done;
        (* The replay must reproduce the stored compressed instances. *)
        let replayed = List.map Instance.compress !insts in
        if replayed <> Array.to_list group then
          invalid_arg "Sup_comp.reconstruct: set is not a leftmost support set of p";
        out := List.rev_append !insts !out)
      () set;
    List.rev !out
  end
