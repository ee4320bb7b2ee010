(** Transactional red-black tree (the paper's red-black-tree benchmark,
    §3.3, taken from the STAMP distribution; also the table substrate of the
    Vacation benchmark).  Iterative CLRS insertion and deletion with parent
    pointers, so update transactions write a handful of locations — the
    opposite profile of the linked list.

    Node layout in word memory: [key; value; left; right; parent; color].
    The null pointer is address 0; instead of CLRS's sentinel we track the
    fixup parent explicitly, which avoids a shared sentinel node that every
    delete would write (a serialisation hotspot under an STM). *)

let node_words = 6

module Make (T : Tstm_tm.Tm_intf.TM) = struct
  type t = { hdr : int }  (* one word holding the root pointer *)

  let red = 0
  let black = 1

  let get_key tx a = T.read tx a
  let get_value tx a = T.read tx (a + 1)
  let get_left tx a = T.read tx (a + 2)
  let get_right tx a = T.read tx (a + 3)
  let get_parent tx a = T.read tx (a + 4)
  let get_color tx a = T.read tx (a + 5)
  let set_key tx a v = T.write tx a v
  let set_value tx a v = T.write tx (a + 1) v
  let set_left tx a v = T.write tx (a + 2) v
  let set_right tx a v = T.write tx (a + 3) v
  let set_parent tx a v = T.write tx (a + 4) v
  let set_color tx a v = T.write tx (a + 5) v

  (* Null-safe color: missing children are black. *)
  let color_of tx a = if a = 0 then black else get_color tx a

  let get_root tx t = T.read tx t.hdr
  let set_root tx t r = T.write tx t.hdr r

  let create stm =
    T.atomically stm (fun tx ->
        let hdr = T.alloc tx 1 in
        T.write tx hdr 0;
        { hdr })

  (* ------------------------------------------------------------------ *)
  (* Rotations                                                           *)
  (* ------------------------------------------------------------------ *)

  let left_rotate t tx x =
    let y = get_right tx x in
    let yl = get_left tx y in
    set_right tx x yl;
    if yl <> 0 then set_parent tx yl x;
    let xp = get_parent tx x in
    set_parent tx y xp;
    if xp = 0 then set_root tx t y
    else if x = get_left tx xp then set_left tx xp y
    else set_right tx xp y;
    set_left tx y x;
    set_parent tx x y

  let right_rotate t tx x =
    let y = get_left tx x in
    let yr = get_right tx y in
    set_left tx x yr;
    if yr <> 0 then set_parent tx yr x;
    let xp = get_parent tx x in
    set_parent tx y xp;
    if xp = 0 then set_root tx t y
    else if x = get_right tx xp then set_right tx xp y
    else set_left tx xp y;
    set_right tx y x;
    set_parent tx x y

  (* ------------------------------------------------------------------ *)
  (* Lookup                                                              *)
  (* ------------------------------------------------------------------ *)

  let rec find_node tx x k =
    if x = 0 then 0
    else
      let xk = get_key tx x in
      if k = xk then x
      else find_node tx (if k < xk then get_left tx x else get_right tx x) k

  let contains t tx k = find_node tx (get_root tx t) k <> 0

  let find_opt t tx k =
    let x = find_node tx (get_root tx t) k in
    if x = 0 then None else Some (get_value tx x)

  (* ------------------------------------------------------------------ *)
  (* Insertion                                                           *)
  (* ------------------------------------------------------------------ *)

  let rec insert_fixup t tx z =
    let p = get_parent tx z in
    if p <> 0 && get_color tx p = red then begin
      let g = get_parent tx p in
      (* The parent is red, so it is not the root and [g] exists. *)
      if p = get_left tx g then begin
        let y = get_right tx g in
        if color_of tx y = red then begin
          set_color tx p black;
          set_color tx y black;
          set_color tx g red;
          insert_fixup t tx g
        end
        else begin
          let z = if z = get_right tx p then (left_rotate t tx p; p) else z in
          let p = get_parent tx z in
          let g = get_parent tx p in
          set_color tx p black;
          set_color tx g red;
          right_rotate t tx g
        end
      end
      else begin
        let y = get_left tx g in
        if color_of tx y = red then begin
          set_color tx p black;
          set_color tx y black;
          set_color tx g red;
          insert_fixup t tx g
        end
        else begin
          let z = if z = get_left tx p then (right_rotate t tx p; p) else z in
          let p = get_parent tx z in
          let g = get_parent tx p in
          set_color tx p black;
          set_color tx g red;
          left_rotate t tx g
        end
      end
    end

  (* [insert t tx k v] returns [true] iff [k] was absent (a node was
     created); an existing binding is left untouched (set semantics — use
     {!put} for map semantics). *)
  let insert t tx k v =
    let rec descend x =
      let xk = get_key tx x in
      if k = xk then false
      else if k < xk then begin
        let l = get_left tx x in
        if l = 0 then attach x k v true else descend l
      end
      else begin
        let r = get_right tx x in
        if r = 0 then attach x k v false else descend r
      end
    and attach p k v as_left =
      let z = T.alloc tx node_words in
      set_key tx z k;
      set_value tx z v;
      set_left tx z 0;
      set_right tx z 0;
      set_parent tx z p;
      set_color tx z red;
      if p = 0 then set_root tx t z
      else if as_left then set_left tx p z
      else set_right tx p z;
      insert_fixup t tx z;
      let r = get_root tx t in
      set_color tx r black;
      true
    in
    let root = get_root tx t in
    if root = 0 then attach 0 k v true else descend root

  let put t tx k v =
    let x = find_node tx (get_root tx t) k in
    if x = 0 then ignore (insert t tx k v) else set_value tx x v

  (* ------------------------------------------------------------------ *)
  (* Deletion                                                            *)
  (* ------------------------------------------------------------------ *)

  let rec min_node tx x =
    let l = get_left tx x in
    if l = 0 then x else min_node tx l

  (* Replace the subtree rooted at [u] by [v] ([v] may be null). *)
  let transplant t tx u v =
    let p = get_parent tx u in
    if p = 0 then set_root tx t v
    else if u = get_left tx p then set_left tx p v
    else set_right tx p v;
    if v <> 0 then set_parent tx v p

  (* [x] (possibly null) sits where a black node was removed; [xp] is its
     parent (null iff [x] is the root). *)
  let rec delete_fixup t tx x xp =
    if xp = 0 then begin
      if x <> 0 then set_color tx x black
    end
    else if x <> 0 && get_color tx x = red then set_color tx x black
    else if x = get_left tx xp then begin
      let w = get_right tx xp in
      let w =
        if get_color tx w = red then begin
          set_color tx w black;
          set_color tx xp red;
          left_rotate t tx xp;
          get_right tx xp
        end
        else w
      in
      if
        color_of tx (get_left tx w) = black
        && color_of tx (get_right tx w) = black
      then begin
        set_color tx w red;
        delete_fixup t tx xp (get_parent tx xp)
      end
      else begin
        let w =
          if color_of tx (get_right tx w) = black then begin
            set_color tx (get_left tx w) black;
            set_color tx w red;
            right_rotate t tx w;
            get_right tx xp
          end
          else w
        in
        set_color tx w (get_color tx xp);
        set_color tx xp black;
        set_color tx (get_right tx w) black;
        left_rotate t tx xp;
        let r = get_root tx t in
        if r <> 0 then set_color tx r black
      end
    end
    else begin
      let w = get_left tx xp in
      let w =
        if get_color tx w = red then begin
          set_color tx w black;
          set_color tx xp red;
          right_rotate t tx xp;
          get_left tx xp
        end
        else w
      in
      if
        color_of tx (get_left tx w) = black
        && color_of tx (get_right tx w) = black
      then begin
        set_color tx w red;
        delete_fixup t tx xp (get_parent tx xp)
      end
      else begin
        let w =
          if color_of tx (get_left tx w) = black then begin
            set_color tx (get_right tx w) black;
            set_color tx w red;
            left_rotate t tx w;
            get_left tx xp
          end
          else w
        in
        set_color tx w (get_color tx xp);
        set_color tx xp black;
        set_color tx (get_left tx w) black;
        right_rotate t tx xp;
        let r = get_root tx t in
        if r <> 0 then set_color tx r black
      end
    end

  let remove t tx k =
    let z = find_node tx (get_root tx t) k in
    if z = 0 then false
    else begin
      let zl = get_left tx z and zr = get_right tx z in
      let removed_color, x, xp =
        if zl = 0 then begin
          let xp = get_parent tx z in
          transplant t tx z zr;
          (get_color tx z, zr, xp)
        end
        else if zr = 0 then begin
          let xp = get_parent tx z in
          transplant t tx z zl;
          (get_color tx z, zl, xp)
        end
        else begin
          (* Two children: splice in the successor [y]. *)
          let y = min_node tx zr in
          let y_color = get_color tx y in
          let x = get_right tx y in
          let xp =
            if get_parent tx y = z then y
            else begin
              let yp = get_parent tx y in
              transplant t tx y x;
              set_right tx y zr;
              set_parent tx zr y;
              yp
            end
          in
          transplant t tx z y;
          set_left tx y zl;
          set_parent tx zl y;
          set_color tx y (get_color tx z);
          (y_color, x, xp)
        end
      in
      if removed_color = black then delete_fixup t tx x xp;
      T.free tx z node_words;
      true
    end

  let add t tx k =
    if k = min_int || k = max_int then invalid_arg "Rbtree: reserved key";
    insert t tx k 0

  (* ------------------------------------------------------------------ *)
  (* Traversals                                                          *)
  (* ------------------------------------------------------------------ *)

  let overwrite_upto t tx bound =
    let rec go x count =
      if x = 0 then (count, true)
      else
        let count, continue_ = go (get_left tx x) count in
        if not continue_ then (count, false)
        else
          let xk = get_key tx x in
          if xk >= bound then (count, false)
          else begin
            set_value tx x (get_value tx x);
            go (get_right tx x) (count + 1)
          end
    in
    fst (go (get_root tx t) 0)

  let size t tx =
    let rec go x acc =
      if x = 0 then acc
      else go (get_right tx x) (go (get_left tx x) acc + 1)
    in
    go (get_root tx t) 0

  let to_list t tx =
    let rec go x acc =
      if x = 0 then acc
      else go (get_left tx x) (get_key tx x :: go (get_right tx x) acc)
    in
    go (get_root tx t) []

  let bindings t tx =
    let rec go x acc =
      if x = 0 then acc
      else
        go (get_left tx x)
          ((get_key tx x, get_value tx x) :: go (get_right tx x) acc)
    in
    go (get_root tx t) []

  (* ------------------------------------------------------------------ *)
  (* Invariant checking (tests)                                          *)
  (* ------------------------------------------------------------------ *)

  exception Broken of string

  (* Checks the red-black invariants, BST order and parent-pointer
     consistency; returns the number of nodes. *)
  let check_invariants t tx =
    let rec go x parent lo hi =
      if x = 0 then (1, 0)
      else begin
        let k = get_key tx x in
        (match lo with
        | Some l when k <= l -> raise (Broken "BST order (low)")
        | _ -> ());
        (match hi with
        | Some h when k >= h -> raise (Broken "BST order (high)")
        | _ -> ());
        if get_parent tx x <> parent then raise (Broken "parent pointer");
        let c = get_color tx x in
        if c <> red && c <> black then raise (Broken "invalid color");
        if c = red then begin
          if color_of tx (get_left tx x) = red then raise (Broken "red-red");
          if color_of tx (get_right tx x) = red then raise (Broken "red-red")
        end;
        let bh_l, n_l = go (get_left tx x) x lo (Some k) in
        let bh_r, n_r = go (get_right tx x) x (Some k) hi in
        if bh_l <> bh_r then raise (Broken "black height");
        ((bh_l + if c = black then 1 else 0), n_l + n_r + 1)
      end
    in
    let root = get_root tx t in
    if root <> 0 then begin
      if get_color tx root <> black then raise (Broken "red root");
      if get_parent tx root <> 0 then raise (Broken "root parent")
    end;
    snd (go root 0 None None)
end
