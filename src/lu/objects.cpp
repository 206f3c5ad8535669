#include "lu/objects.hpp"

#include "support/error.hpp"

namespace dps::lu {

lin::Matrix BlockPayload::toMatrix() const {
  DPS_CHECK(!phantom(), "cannot materialize a phantom payload");
  lin::Matrix m(rows, cols);
  m.storage() = data;
  return m;
}

} // namespace dps::lu
